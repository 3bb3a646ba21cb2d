"""Holonomy and time-evolution routes to the loop phase.

The two routes are deliberately independent: the holonomy tests freeze
their expectations from the closed-form phase (itself pinned to generator
expectation values in test_model), and the adiabatic tests compare both
against that closed form and against the holonomy result, so a common-mode
error cannot hide.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from anyonjc import berry
from anyonjc.berry import (
    MAX_STEPS,
    STEP_AREA,
    STEP_PHASE,
    DriveSchedule,
    adiabatic_evolution,
    calibrate_sign_convention,
    comoving_evolve,
    drive_charge,
    extrapolated_adiabatic_phase,
    holonomy_phase,
    magnus_step_count,
    principal_value,
)
from anyonjc.config import TOL
from anyonjc.errors import (
    NonAdiabatic,
    NormDrift,
    SimulationError,
    StepLimit,
    VanishingOverlap,
)
from anyonjc.iontrap import (
    TrapParams,
    adiabaticity_budget,
    g_for_unit_coupling,
    ramsey_basis,
    ramsey_sweep,
    sideband_hamiltonian,
)
from anyonjc.model import (
    ModelParams,
    TwoAnyonParams,
    analytic_berry_phase,
    analytic_eigensystem,
    build_interaction_hamiltonian,
    default_basis,
    dressed_state_vector,
    two_anyon_basis,
    two_anyon_eigenstate,
)
from anyonjc.fock import SPIN_DOWN, SPIN_UP, BasisSpec, FockOperator, StateVector
from anyonjc.paths import (
    LoopPath,
    SchwingerFrame,
    constant_latitude_loop,
    default_latitude_loop,
    lift,
    polygon_loop,
    schwinger_frame,
)

TWO_PI = 2.0 * math.pi


def doublet_setup(m=2, delta=0.0, branch="+", n=0, n_prime=0):
    params = ModelParams(m=m, delta_m=delta, n=n, n_prime=n_prime)
    frame = schwinger_frame(default_basis(params))
    which = 0 if branch == "+" else 1
    state = dressed_state_vector(analytic_eigensystem(params)[which])
    return params, frame, state


def test_principal_value_branch_cut():
    assert principal_value(0.3) == pytest.approx(0.3)
    assert principal_value(TWO_PI + 0.3) == pytest.approx(0.3)
    assert principal_value(-TWO_PI + 0.3) == pytest.approx(0.3)
    assert principal_value(math.pi) == pytest.approx(math.pi)
    assert principal_value(-math.pi) == pytest.approx(math.pi)
    assert principal_value(0.0) == 0.0


def test_sign_calibration_fixed_and_idempotent():
    assert calibrate_sign_convention() == -1
    assert calibrate_sign_convention() == calibrate_sign_convention()


# Prints the holonomy and adiabatic gamma_total of the m = 2 resonant
# doublet at theta = 0.7 as JSON; with the argument "negate", after every
# anyonjc module bound to analytic_berry_phase is rebound to its negative
_ROUTES = """
import json, sys
import anyonjc
from anyonjc import *
from anyonjc.paths import constant_latitude_loop
if sys.argv[1:] == ["negate"]:
    original = anyonjc.model.analytic_berry_phase
    def negated(*args, **kwargs):
        return -original(*args, **kwargs)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("anyonjc"):
            if getattr(module, "analytic_berry_phase", None) is original:
                module.analytic_berry_phase = negated
params = ModelParams(m=2)
frame = schwinger_frame(default_basis(params))
state = dressed_state_vector(analytic_eigensystem(params)[0])
path = constant_latitude_loop(0.7, 96)
holonomy = holonomy_phase(state, frame, path).gamma_total
h0 = build_interaction_hamiltonian(params)
_, report = adiabatic_evolution(h0, frame, DriveSchedule(path, 60.0), state)
print(json.dumps([holonomy, report.gamma_total]))
"""


def test_numerical_routes_do_not_read_the_closed_form():
    # a fresh process, so that nothing computed before the patch is reused
    src = str(Path(berry.__file__).parent.parent)

    def phases(*argv):
        run = subprocess.run(
            [sys.executable, "-c", _ROUTES, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout)

    plain, negated = phases(), phases("negate")
    assert plain[0] > 0.5 and plain[1] > 0.5  # (m/4) Omega = 0.739
    assert negated == pytest.approx(plain, abs=1e-12)


class TestHolonomy:
    def test_lift_above_max_lifted_raises_before_allocating(self):
        # 250,001 samples of 8 states: 2,000,008 amplitudes, just above the cap
        _, frame, state = doublet_setup()
        path = constant_latitude_loop(0.5, 250_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2000008 amplitudes, above MAX_LIFTED"):
                berry.holonomy_phases([state], frame, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # one complex per sample alone would take 4 MB
        report = holonomy_phase(state, frame, constant_latitude_loop(0.5, 249_999))
        assert report.n_steps == 249_999 and report.winding is not None

    def test_pair_run_peaks_below_the_lifted_rows(self):
        # the lifted rows of a 4,096-step m = 2 pair run (dim 20, span 8)
        # peaked at 2.69 MB; the stretch search and two overlaps stay below 60%
        pair = TwoAnyonParams(m=2)
        basis = two_anyon_basis(pair)
        frame, state = schwinger_frame(basis), two_anyon_eigenstate(pair, basis)
        path = default_latitude_loop(2, 1.3, 4096)
        holonomy_phase(state, frame, path)  # the frame's cached J_y spectrum
        tracemalloc.start()
        try:
            holonomy_phase(state, frame, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 2.69e6

    def test_zero_area_loop(self):
        params, frame, state = doublet_setup()
        path = constant_latitude_loop(0.0, 64)
        report = holonomy_phase(state, frame, path)
        assert abs(report.gamma_total) < 1e-9
        assert report.winding == 0

    def test_bare_spin_state_gets_half_omega(self):
        # with the coupling off, the transported |up, 1, 0> doublet member
        # must pick up Omega * (n - n') / 2 = Omega / 2
        basis = default_basis(ModelParams(m=1, n=1))
        state = StateVector.basis_state(basis, (SPIN_UP, 1, 0))
        path = constant_latitude_loop(1.234, 512)
        report = holonomy_phase(state, schwinger_frame(basis), path)
        assert report.gamma_total == pytest.approx(path.omega_solid / 2.0, abs=1e-8)

    @pytest.mark.parametrize(
        "m,theta,delta", [(1, 0.7, 0.0), (2, 1.2, 0.4), (3, 2.0, -1.1)]
    )
    def test_matches_closed_form(self, m, theta, delta):
        params, frame, state = doublet_setup(m=m, delta=delta)
        path = default_latitude_loop(m, theta, 1024)
        report = holonomy_phase(state, frame, path)
        want = analytic_berry_phase(params, path.omega_solid)
        assert report.gamma_per_revolution == pytest.approx(want, abs=1e-6)

    def test_full_turn_winding(self):
        # m = 2 at the south pole: 2 pi of accumulated phase, principal 0
        params, frame, state = doublet_setup()
        path = constant_latitude_loop(math.pi, 2000)
        report = holonomy_phase(state, frame, path)
        assert report.gamma_total == pytest.approx(TWO_PI, abs=1e-6)
        assert report.winding == 1
        assert abs(report.gamma) < 1e-6

    def test_raw_error_is_second_order(self):
        params, frame, state = doublet_setup(delta=0.3)
        errors = []
        for n_steps in (256, 512, 1024):
            path = constant_latitude_loop(0.9, n_steps)
            report = holonomy_phase(state, frame, path, refine=False)
            want = analytic_berry_phase(params, path.omega_solid)
            errors.append(abs(report.gamma_total - want))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)

    def test_refinement_beats_raw(self):
        params, frame, state = doublet_setup(delta=0.3)
        path = constant_latitude_loop(0.9, 1024)
        want = analytic_berry_phase(params, path.omega_solid)
        raw = holonomy_phase(state, frame, path, refine=False)
        refined = holonomy_phase(state, frame, path)
        assert abs(refined.gamma_total - want) < abs(raw.gamma_total - want) / 100
        assert refined.diagnostics["refined"]
        assert refined.diagnostics["discretization_estimate"] > 0

    def test_gauge_scramble_leaves_principal(self):
        params, frame, state = doublet_setup(m=2, delta=0.8)
        path = constant_latitude_loop(1.1, 512)
        reference = holonomy_phase(state, frame, path)
        for seed in (1, 7, 1234):
            scrambled = holonomy_phase(state, frame, path, gauge_seed=seed)
            assert scrambled.gamma == pytest.approx(
                reference.gamma, abs=TOL.gauge_invariance
            )
            assert scrambled.winding is None
            assert scrambled.gamma_total is None

    def test_branch_equality_on_resonance(self):
        _, frame, plus_state = doublet_setup(m=2, delta=0.0, branch="+")
        _, _, minus_state = doublet_setup(m=2, delta=0.0, branch="-")
        path = constant_latitude_loop(0.9, 512)
        gp = holonomy_phase(plus_state, frame, path).gamma_total
        gm = holonomy_phase(minus_state, frame, path).gamma_total
        assert gm == pytest.approx(gp, abs=TOL.branch_equality)

    def test_branch_mirror_off_resonance(self):
        path = constant_latitude_loop(1.2, 512)
        _, frame_p, plus_state = doublet_setup(m=2, delta=0.7, branch="+")
        _, frame_m, minus_state = doublet_setup(m=2, delta=-0.7, branch="-")
        gp = holonomy_phase(plus_state, frame_p, path).gamma_total
        gm = holonomy_phase(minus_state, frame_m, path).gamma_total
        assert gm == pytest.approx(gp, abs=1e-8)

    def test_vanishing_overlap_raises(self):
        # a spin-90 stretched state walked around the equator in 8 strides
        # has successive overlaps around cos(pi/8)^180 ~ 7e-7
        basis = default_basis(ModelParams(m=1, n=180))
        frame = schwinger_frame(basis)
        state = StateVector.basis_state(basis, (SPIN_UP, 180, 0))
        path = constant_latitude_loop(math.pi / 2, 8)
        with pytest.raises(VanishingOverlap):
            holonomy_phase(state, frame, path)

    def test_transport_preserves_norm(self):
        # each sample twice: the pairs of a sample with itself (a zero step,
        # each a stretch of its own) give the transported state's norm
        params, frame, state = doublet_setup(m=3)
        loop = constant_latitude_loop(2.2, 64)
        doubled = np.vstack([np.repeat(loop.samples[:-1], 2, axis=0), loop.samples[-1:]])
        path = LoopPath(doubled, omega_solid=loop.omega_solid)
        norms = spread_overlaps([state], frame, path)[0, ::2]
        assert np.abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize(
        "path",
        [
            constant_latitude_loop(1.1, 16, revolutions=2),
            constant_latitude_loop(1.1, 16),
            # runs of equal theta, then a lone vertex and the closing one
            polygon_loop([(0.5, 0.0), (0.5, 2.0), (1.0, 3.0), (1.0, 4.0), (0.7, 5.0)]),
            # two theta runs at one phi step: only the theta jumps, the
            # closing pair's among them, open stretches
            polygon_loop([(0.5 + 0.5 * (k >= 4), k * math.pi / 4) for k in range(8)]),
        ],
        ids=["latitude", "latitude-once", "polygon", "polygon-equal-steps"],
    )
    def test_transport_rows_are_lifted_state(self, path):
        # odd m: the doublet's levels differ by an odd span
        params, frame, state = doublet_setup(m=3, delta=0.4)
        assert_overlaps_are_lifted([state], frame, path)

    @pytest.mark.parametrize("case", ["wide-doublet", "exchange-pair", "polygon-runs"])
    def test_transport_rows_are_lifted_state_at_wide_level_spans(self, case):
        # wide spans of the 2 J_z levels: 486 at n = n' = 120, m = 3 (970
        # states, near the CLI cap)
        if case == "wide-doublet":
            params, frame, state = doublet_setup(m=3, delta=0.4, n=120, n_prime=120)
            path = constant_latitude_loop(2.1, 8)
        elif case == "exchange-pair":
            pair = TwoAnyonParams(m=2)
            basis = two_anyon_basis(pair)
            frame, state = schwinger_frame(basis), two_anyon_eigenstate(pair, basis)
            path = constant_latitude_loop(1.3, 64, revolutions=2)
        else:
            # theta runs whose phi steps differ: every pair is its own stretch
            params, frame, state = doublet_setup(m=3, delta=-0.7, n=2, n_prime=1)
            path = polygon_loop(
                [(0.3, 0.0), (0.3, 1.0), (0.3, 1.5), (1.2, 2.0), (1.2, 3.0),
                 (2.5, 3.5), (2.5, 4.5), (2.5, 5.0), (0.9, 5.5)]
            )
        assert_overlaps_are_lifted([state], frame, path)

    def test_transport_rejects_levels_off_the_half_integers(self):
        params, frame, state = doublet_setup(m=2)
        shifted = np.diag(frame.jz_diagonal + 0.25).astype(complex)
        bent = SchwingerFrame(frame.basis, frame.j_y, FockOperator(frame.basis, shifted))
        with pytest.raises(ValueError, match="half-integer"):
            holonomy_phase(state, bent, constant_latitude_loop(1.0, 16))

    @pytest.mark.parametrize("length", [2, 3, 9, 513])
    def test_cycle_overlaps_match_the_rolled_copy(self, length):
        # three random superpositions of one doublet's branches, each
        # against the rolled copy of its lifted rows
        rng = np.random.default_rng(length)
        params = ModelParams(m=2, delta_m=0.6, n=1)
        states = branch_superpositions(rng, params, 3)
        path = rolled_loop(rng, length)
        assert_overlaps_are_lifted(states, schwinger_frame(default_basis(params)), path)

    @pytest.mark.parametrize("length", [2, 9, 513])
    def test_equal_levels_of_one_sector_share_the_overlap(self, length):
        # several basis states on one level: (1, 0, 0, 1) and (0, 1, 1, 0)
        # at 2 J_z = 0 in the spin-up (1, 1) sector, with a spin-down
        # component at 2 J_z = 2
        rng = np.random.default_rng(length)
        basis = BasisSpec(4, ((0, 0), (1, 1)))
        labels = [(SPIN_UP, 1, 0, 0, 1), (SPIN_UP, 0, 1, 1, 0), (SPIN_DOWN, 1, 0, 1, 0)]
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = StateVector.from_components(basis, dict(zip(labels, z / np.linalg.norm(z))))
        assert_overlaps_are_lifted([state], schwinger_frame(basis), rolled_loop(rng, length))

    def test_two_levels_in_one_sector_are_rejected(self):
        rng = np.random.default_rng(2)
        basis = default_basis(ModelParams(m=2, n=1))
        z = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        state = StateVector(basis, z / np.linalg.norm(z))
        frame, path = schwinger_frame(basis), constant_latitude_loop(1.0, 64)
        _, _, dressed = doublet_setup(m=2, n=1)
        message = "two levels of 2 J_z in one sector"
        with pytest.raises(ValueError, match=message):
            holonomy_phase(state, frame, path)
        with pytest.raises(ValueError, match=message):
            berry.holonomy_phases([dressed, state, dressed], frame, path)

    @pytest.mark.parametrize("n_steps", [512, 4096, 65536])
    @pytest.mark.parametrize("case", ["doublet", "exchange-pair"])
    def test_a_latitude_loop_takes_two_stretch_overlaps_for_any_length(self, case, n_steps):
        if case == "doublet":
            _, frame, state = doublet_setup(m=3, delta=0.4, n=1)
        else:
            pair = TwoAnyonParams(m=2)
            basis = two_anyon_basis(pair)
            frame, state = schwinger_frame(basis), two_anyon_eigenstate(pair, basis)
        report = holonomy_phase(state, frame, constant_latitude_loop(1.1, n_steps))
        assert report.diagnostics["stretch_overlaps"] == 2 and report.diagnostics["refined"]

    def test_a_polygon_takes_one_stretch_overlap_per_pair(self):
        params, frame, state = doublet_setup(m=2, delta=0.3)
        vertices = [(0.4 + 0.1 * k, 0.6 * k) for k in range(8)]
        path = polygon_loop(vertices)
        report = holonomy_phase(state, frame, path)
        assert path.segments == 8
        assert report.diagnostics["stretch_overlaps"] == 8 + 4

    def test_creeping_steps_are_taken_pair_by_pair(self):
        # neighbouring phi steps differ by 2 ulp, under the stretch bound,
        # but drift apart by 2e-12 over the loop: no shared step fits them
        rng = np.random.default_rng(5)
        params = ModelParams(m=3, delta_m=-0.4, n=1)
        [state] = branch_superpositions(rng, params, 1)
        basis = default_basis(params)
        steps = 0.006 + np.spacing(6.0) * 2.0 * np.arange(1000)
        cycle = np.column_stack([np.full(1000, 1.0), np.cumsum(steps) - steps[0]])
        path = LoopPath(np.vstack([cycle, cycle[:1]]), omega_solid=0.0)
        assert_overlaps_are_lifted([state], schwinger_frame(basis), path)

    @pytest.mark.parametrize("revolutions", [1, 2])
    @pytest.mark.parametrize("n_steps", [512, 4096])
    def test_latitude_loop_is_one_stretch_on_both_cycles(self, revolutions, n_steps):
        # one overlap per cycle: the closing pair's step, taken modulo 2 pi,
        # matches the others, so no pair opens a stretch of its own
        params, frame, state = doublet_setup(m=3, delta=0.4)
        path = constant_latitude_loop(1.1, n_steps, revolutions=revolutions)
        cycle = berry._cycle_overlaps(frame, path)(state)
        for stride in (1, 2):
            [(lo, count, _)] = cycle(stride)
            assert lo == 0 and count == path.segments // stride

    def test_gauge_seed_multiplies_each_overlap_by_its_row_phases(self):
        params, frame, state = doublet_setup(m=3, delta=0.4)
        path = constant_latitude_loop(1.1, 64, revolutions=2)
        rho = TWO_PI * np.random.default_rng(11).random(path.segments)
        report = holonomy_phase(state, frame, path, gauge_seed=11)

        def regauged(stride):
            phases = rho[::stride]
            ov = lifted_overlaps([state], frame, path, stride)[0]
            return ov * np.exp(1j * (np.roll(phases, -1) - phases))

        ov, half = regauged(1), regauged(2)
        diag = report.diagnostics
        assert abs(diag["min_overlap"] - np.abs(ov).min()) < 1e-13
        assert abs(diag["max_step_arg"] - np.abs(np.angle(ov)).max()) < 1e-13
        want = principal_value(-np.angle(ov).sum())
        assert abs(diag["gamma_raw_principal"] - want) < 1e-13
        estimate = abs(principal_value(np.angle(half).sum() - np.angle(ov).sum())) / 3.0
        assert abs(diag["discretization_estimate"] - estimate) < 1e-13


def lifted_overlaps(states, frame, path, stride=1):
    """The consecutive overlaps (P, K / stride) around the cycle of states
    lifted with paths.lift at every sample: row against next, last
    against row 0."""
    cycle = path.samples[:-1:stride]
    rows = np.array([[lift(frame, th, ph) @ s.amplitudes for s in states] for th, ph in cycle])
    return np.einsum("kpd,kpd->pk", rows.conj(), np.roll(rows, -1, axis=0))


def spread_overlaps(states, frame, path, stride=1):
    """The same (P, K / stride) overlaps from berry._cycle_overlaps, each
    stretch (lo, count, c_0) it yields spread over its pairs."""
    overlaps = berry._cycle_overlaps(frame, path)
    got = np.full((len(states), path.segments // stride), np.nan, dtype=complex)
    for p, state in enumerate(states):
        for lo, count, c0 in overlaps(state)(stride):
            got[p, lo : lo + count] = c0
    return got


def branch_superpositions(rng, params, count):
    """count random complex superpositions of the two dressed branches of
    the params' doublet: not eigenstates, but one level per sector."""
    plus, minus = (dressed_state_vector(d).amplitudes for d in analytic_eigensystem(params))
    z = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return [StateVector(default_basis(params), a * plus + b * minus) for a, b in z]


def rolled_loop(rng, length):
    """A loop of `length` samples in two theta runs whose phi steps repeat
    in places."""
    phi = np.cumsum(rng.choice([0.1, 0.1, 0.1, 0.25], size=length))
    theta = np.where(np.arange(length) < length // 2, 0.4, 1.1)
    cycle = np.column_stack([theta, phi])
    return LoopPath(np.vstack([cycle, cycle[:1]]), omega_solid=0.0)


def assert_overlaps_are_lifted(states, frame, path):
    """The stretch overlaps match the lifted rows' to 1e-13, on the
    cycle and, for an even cycle, on the half-resolution one."""
    for stride in (1, 2) if path.segments % 2 == 0 else (1,):
        got = spread_overlaps(states, frame, path, stride)
        assert np.abs(got - lifted_overlaps(states, frame, path, stride)).max() < 1e-13


def batch_setup(case, points):
    """A frame, a loop and `points` states on the frame's basis: dressed
    states of one doublet at spread detunings, or the exchange-coupled
    pair's eigenstate and random superpositions of it and its partner."""
    if case == "pair":
        basis = two_anyon_basis(TwoAnyonParams(m=2))
        rng = np.random.default_rng(3)
        branches = [(SPIN_UP, 0, 0, 0, 0), (SPIN_DOWN, 2, 0, 2, 0)]
        z = rng.normal(size=(points, 2)) + 1j * rng.normal(size=(points, 2))
        z[0] = 1.0
        states = [
            StateVector.from_components(basis, dict(zip(branches, v / np.linalg.norm(v))))
            for v in z
        ]
        return schwinger_frame(basis), constant_latitude_loop(1.3, 64, revolutions=2), states
    m, n, n_prime, branch = case
    basis = default_basis(ModelParams(m=m, n=n, n_prime=n_prime))
    states = []
    for delta in np.linspace(-6.0, 6.0, points):
        params = ModelParams(m=m, delta_m=float(delta), n=n, n_prime=n_prime)
        dressed = analytic_eigensystem(params)[0 if branch == "+" else 1]
        states.append(dressed_state_vector(dressed, basis))
    return schwinger_frame(basis), default_latitude_loop(m, 1.1, 128), states


BATCH_CASES = [
    pytest.param((m, n, n_prime, branch), id=f"m{m}-n{n}{n_prime}{branch}")
    for m in (1, 2, 3)
    for n, n_prime in ((0, 0), (1, 2))
    for branch in "+-"
] + [pytest.param("pair", id="pair")]


class TestSharedFrame:
    def test_cold_and_warm_frames_give_equal_reports(self):
        # each route on a frame built for its call (cold) and again on the
        # shared frame that call left behind (warm): equal, field for field
        params, _, state = doublet_setup(m=2, delta=0.4, n=1)
        basis, h0 = default_basis(params), build_interaction_hamiltonian(params)
        path = default_latitude_loop(2, 0.7, 96)
        routes = (
            lambda frame: holonomy_phase(state, frame, path),
            lambda frame: adiabatic_evolution(h0, frame, DriveSchedule(path, 60.0), state)[1],
        )
        for route in routes:
            schwinger_frame.cache_clear()
            cold_frame = schwinger_frame(basis)
            cold = route(cold_frame)
            warm_frame = schwinger_frame(default_basis(params))
            assert warm_frame is cold_frame
            assert route(warm_frame) == cold


class TestHolonomyBatch:
    """holonomy_phases: many states on one loop, each as if alone."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_batch_equals_one_state_calls_bitwise(self, case):
        frame, path, states = batch_setup(case, 11)
        batch = berry.holonomy_phases(states, frame, path)
        assert batch == [holonomy_phase(state, frame, path) for state in states]
        for stride in (1, 2):
            together = spread_overlaps(states, frame, path, stride)
            for p, state in enumerate(states):
                alone = spread_overlaps([state], frame, path, stride)[0]
                assert np.array_equal(together[p], alone)

    def test_a_hundred_states_equal_their_one_state_calls(self):
        frame, path, states = batch_setup((1, 0, 0, "+"), 100)
        batch = berry.holonomy_phases(states, frame, path)
        assert batch == [holonomy_phase(state, frame, path) for state in states]

    def test_nan_state_raises_alone_and_in_a_batch(self):
        frame, path, states = batch_setup((2, 1, 2, "-"), 2)
        broken = StateVector(frame.basis, np.full(frame.basis.dim, np.nan, dtype=complex))
        with pytest.raises(ValueError, match="state amplitudes must be finite"):
            holonomy_phase(broken, frame, path)
        with pytest.raises(ValueError, match="state amplitudes must be finite"):
            berry.holonomy_phases([states[0], broken, states[1]], frame, path)

    @pytest.mark.parametrize("seed", [None, 7])
    def test_refine_and_gauge_seed_keep_their_meaning(self, seed):
        frame, path, states = batch_setup((2, 0, 0, "+"), 5)
        raw = berry.holonomy_phases(states, frame, path, refine=False, gauge_seed=seed)
        refined = berry.holonomy_phases(states, frame, path, gauge_seed=seed)
        for state, r, f in zip(states, raw, refined):
            assert r == holonomy_phase(state, frame, path, refine=False, gauge_seed=seed)
            assert not r.diagnostics["refined"] and f.diagnostics["refined"]
            if seed is None:
                assert r.winding is not None and f.winding is not None
            else:
                # regauged: principal value only, unchanged by the phases
                reference = holonomy_phase(state, frame, path)
                assert r.winding is None and f.gamma_total is None
                assert f.gamma == pytest.approx(reference.gamma, abs=TOL.gauge_invariance)

    def test_one_too_coarse_state_is_reported_as_alone(self, monkeypatch):
        # fig1's loop at 8 steps: the resonant state steps its phase by
        # 0.36 rad and its overlaps dip to 0.857, the others step 0.11 rad
        # at most and keep 0.93: a cap of 0.2 (a floor of 0.9) trips on it alone
        basis = default_basis(ModelParams(m=2))
        frame, path = schwinger_frame(basis), default_latitude_loop(2, math.pi / 2, 8)
        states = [
            dressed_state_vector(analytic_eigensystem(ModelParams(m=2, delta_m=d))[0], basis)
            for d in (0.0, 2.5, 5.0, 7.5, 10.0)
        ]
        monkeypatch.setattr(berry, "TOL", replace(TOL, winding_step_cap=0.2))
        batch = berry.holonomy_phases(states[::-1], frame, path)
        assert [r.winding is None for r in batch] == [False] * 4 + [True]
        assert batch == [holonomy_phase(state, frame, path) for state in states[::-1]]
        # a vanishing overlap raises for the batch as for the state alone
        monkeypatch.setattr(berry, "TOL", replace(TOL, vanishing_overlap=0.9))
        with pytest.raises(VanishingOverlap) as alone:
            holonomy_phase(states[0], frame, path)
        with pytest.raises(VanishingOverlap) as batched:
            berry.holonomy_phases(states[::-1], frame, path)
        assert str(batched.value) == str(alone.value)
        # the batch raises what its first failing state raises
        broken = StateVector(basis, np.full(basis.dim, np.nan, dtype=complex))
        with pytest.raises(VanishingOverlap) as batched:
            berry.holonomy_phases([states[0], broken], frame, path)
        assert str(batched.value) == str(alone.value)
        with pytest.raises(ValueError, match="finite"):
            berry.holonomy_phases([broken, states[0]], frame, path)

    def test_empty_batch(self):
        frame, path, _ = batch_setup((1, 0, 0, "+"), 1)
        assert berry.holonomy_phases([], frame, path) == []

    def test_batch_basis_must_match_the_frame(self):
        frame, path, states = batch_setup((1, 0, 0, "+"), 2)
        _, _, other = doublet_setup(m=2)
        with pytest.raises(ValueError, match="different bases"):
            berry.holonomy_phases([states[0], other], frame, path)


class TestSchedule:
    def test_smoothstep_endpoints_at_rest(self):
        path = constant_latitude_loop(1.0, 32)
        sched = DriveSchedule(path, 10.0)
        assert sched.path_parameter(0.0) == (0.0, 0.0)
        assert sched.path_parameter(10.0) == pytest.approx((1.0, 0.0))
        eps = 1e-4
        s, ds = sched.path_parameter(eps)
        assert s < eps / 10.0 and ds < 1e-3  # starts at rest
        # 2 pi over 10 time units, at 1.5 times the mean rate at mid-drive
        assert sched.peak_rates() == pytest.approx((0.0, 1.5 * TWO_PI / 10.0))

    def test_uniform_rate(self):
        path = constant_latitude_loop(1.0, 32)
        sched = DriveSchedule(path, 8.0, time_parametrization="uniform")
        assert sched.path_parameter(2.0) == pytest.approx((0.25, 1.0))
        assert sched.peak_rates() == pytest.approx((0.0, TWO_PI / 8.0))

    def test_rejects_unknown_settings(self):
        path = constant_latitude_loop(1.0, 32)
        with pytest.raises(ValueError, match="^total_time must be positive$"):
            DriveSchedule(path, -1.0)
        with pytest.raises(ValueError, match="^total_time must be positive$"):
            DriveSchedule(path, math.nan)
        with pytest.raises(ValueError, match="^total_time must be finite$"):
            DriveSchedule(path, math.inf)
        with pytest.raises(ValueError):
            DriveSchedule(path, 1.0, time_parametrization="cubic")
        # the Magnus generator squares the rates: 1e-300 would overflow it
        with pytest.raises(ValueError, match="above MAX_RATE = 1e\\+150"):
            DriveSchedule(path, 1e-300)

    @given(
        st.floats(1e-3, 1e4),
        st.floats(0.0, 1e3),
        st.floats(0.0, 1e2),
        st.integers(1, 5000),
    )
    def test_step_rule(self, total_time, energy, rate, segments):
        area_steps = total_time * math.sqrt(energy * rate / STEP_AREA)
        wanted = max(area_steps, total_time * energy / STEP_PHASE)
        if wanted > MAX_STEPS:
            with pytest.raises(StepLimit):
                magnus_step_count(total_time, energy, rate, segments)
            return
        n_steps = magnus_step_count(total_time, energy, rate, segments)
        assert segments <= n_steps <= max(segments, MAX_STEPS)
        dt = total_time / n_steps
        area = (energy * dt) * (rate * dt)
        assert area <= STEP_AREA * (1.0 + 8.0 * sys.float_info.epsilon)
        assert energy * dt <= STEP_PHASE * (1.0 + 4.0 * sys.float_info.epsilon)

    def test_drive_point_interpolates_samples(self):
        path = polygon_loop([[0.5, 0.0], [1.0, 2.0], [0.7, 4.0], [0.5, TWO_PI]])
        sched = DriveSchedule(path, 6.0, time_parametrization="uniform")
        assert sched.drive_point(0.0) == (0.5, 0.0, 0.25, 1.0)
        assert sched.drive_point(2.0)[:2] == pytest.approx((1.0, 2.0))
        assert sched.drive_point(3.0) == pytest.approx((0.85, 3.0, -0.15, 1.0))
        last = (0.5, TWO_PI, -0.1, 0.5 * (TWO_PI - 4.0))
        assert sched.drive_point(6.0) == pytest.approx(last)
        theta, phi, dtheta, dphi = sched.drive_point(np.array([[0.0, 3.0, 6.0]]))
        assert theta.shape == dphi.shape == (1, 3)
        assert dtheta[0] == pytest.approx([0.25, -0.15, -0.1])
        # the drive bends at the two inner vertices, passed at t = 2 and 4
        assert sched.step_times(3) == pytest.approx([2.0, 4.0, 6.0])
        assert sched.step_times(4) == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_step_times_end_at_bends(self):
        path = polygon_loop([[0.5, 0.0], [1.0, 2.0], [0.7, 4.0], [0.5, TWO_PI]])
        sched = DriveSchedule(path, 6.0)
        times = sched.step_times(10)
        assert times[-1] == pytest.approx(6.0) and np.all(np.diff(times) > 0)
        assert len(times) <= 10 + 2 and np.diff(times).max() <= 0.6 * (1 + 1e-12)
        # the smoothstep drive passes the inner vertices at two step ends
        passed = sched.path_parameter(times)[0] * path.segments
        assert np.sum(np.abs(passed - 1.0) < 1e-9) == 1
        assert np.sum(np.abs(passed - 2.0) < 1e-9) == 1
        # a latitude loop never bends: its steps are all equal
        latitude = DriveSchedule(constant_latitude_loop(1.0, 32), 6.0)
        assert latitude.step_times(10) == pytest.approx(np.linspace(0.6, 6.0, 10))

    @pytest.mark.parametrize("mode", ["smoothstep", "uniform"])
    @pytest.mark.parametrize("n_steps", [1, 7, 100, 517, 4000])
    def test_step_times_match_per_piece_linspace(self, mode, n_steps, rng):
        # the loop version: one np.linspace per bend-to-bend piece
        def per_piece(sched):
            chords = np.diff(sched.path.samples, axis=0)
            bent = np.abs(np.diff(chords, axis=0)).max(axis=1) > 1e-12
            y = (np.flatnonzero(bent) + 1) / sched.path.segments
            if mode == "smoothstep":
                y = 0.5 - np.sin(np.arcsin(1.0 - 2.0 * y) / 3.0)
            edges = sched.total_time * np.concatenate([[0.0], y, [1.0]])
            pieces = np.diff(edges) * (n_steps / sched.total_time)
            pieces = np.ceil(np.round(pieces, 9)).astype(int)
            steps = zip(edges, edges[1:], pieces)
            return np.concatenate([np.linspace(a, b, k + 1)[1:] for a, b, k in steps])

        loops = [constant_latitude_loop(1.0, 96, revolutions=2)]
        for _ in range(16):
            n = rng.integers(4, 40)
            theta = 0.9 + rng.uniform(0.1, 0.2) * np.sin(rng.integers(1, 3) * np.arange(n + 1))
            loops.append(polygon_loop(np.column_stack([theta, TWO_PI * np.arange(n + 1) / n])))
        # bends at its first and its last inner sample
        loops.append(polygon_loop([[0.5, 0.0], [0.6, 0.1], [0.6, 3.1], [0.6, 6.1], [0.5, TWO_PI]]))
        for path in loops:
            sched = DriveSchedule(path, rng.uniform(1.0, 500.0), mode)
            assert np.array_equal(sched.step_times(n_steps), per_piece(sched))


class TestAdiabatic:
    def test_static_point_gives_zero_phase(self):
        # a loop pinned at the pole leaves H constant: pure dynamic phase
        params, frame, state = doublet_setup(m=2, delta=0.4)
        h0 = build_interaction_hamiltonian(params)
        path = constant_latitude_loop(0.0, 16)
        _, report = adiabatic_evolution(h0, frame, DriveSchedule(path, 30.0), state)
        assert abs(report.gamma_total) < 1e-6
        lam = params.big_lambda
        assert report.diagnostics["dynamic_phase_subtracted"] == pytest.approx(
            lam * 30.0, rel=1e-9
        )

    def test_matches_closed_form_after_extrapolation(self):
        params, frame, state = doublet_setup(m=2, delta=0.4)
        h0 = build_interaction_hamiltonian(params)
        path = default_latitude_loop(2, 0.7, 96)
        sched = DriveSchedule(path, 200.0)
        report = extrapolated_adiabatic_phase(h0, frame, sched, state)
        want = analytic_berry_phase(params, path.omega_solid)
        assert report.gamma_per_revolution == pytest.approx(want, abs=1e-2)
        assert report.method == "adiabatic-extrapolated"

    def test_agrees_with_holonomy_at_south_pole(self):
        params, frame, state = doublet_setup(m=2)
        h0 = build_interaction_hamiltonian(params)
        path = constant_latitude_loop(math.pi, 96)
        hol = holonomy_phase(state, frame, path)
        report = extrapolated_adiabatic_phase(
            h0, frame, DriveSchedule(path, 200.0), state
        )
        assert report.gamma_total == pytest.approx(
            hol.gamma_total, abs=TOL.adiabatic_vs_holonomy
        )

    def test_leak_shrinks_with_slower_drives(self):
        params, frame, state = doublet_setup(m=2, delta=0.4)
        h0 = build_interaction_hamiltonian(params)
        path = default_latitude_loop(2, 0.7, 96)
        leaks = []
        for total in (50.0, 100.0, 200.0):
            _, report = adiabatic_evolution(
                h0, frame, DriveSchedule(path, total), state
            )
            leaks.append(report.diagnostics["max_nonadiabatic_leak"])
        assert leaks[0] > leaks[1] > leaks[2]
        assert leaks[2] < 1e-3

    def test_too_fast_raises(self):
        params, frame, state = doublet_setup(m=2, delta=0.4)
        h0 = build_interaction_hamiltonian(params)
        path = default_latitude_loop(2, 2.6, 96)
        with pytest.warns(UserWarning, match="ten coupling periods"):
            with pytest.raises(NonAdiabatic):
                adiabatic_evolution(h0, frame, DriveSchedule(path, 5.0), state)

    @pytest.mark.parametrize("run", [adiabatic_evolution, extrapolated_adiabatic_phase])
    def test_short_drive_warns_once_at_the_caller(self, run):
        # T = 6 and T/2 = 3 are both under ten periods of the largest
        # |energy| (sqrt 2); a loop this small still passes the leak guard
        params, frame, state = doublet_setup(m=2)
        h0 = build_interaction_hamiltonian(params)
        sched = DriveSchedule(constant_latitude_loop(0.02, 32), 6.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(h0, frame, sched, state)
        [warning] = caught
        assert "ten coupling periods" in str(warning.message)
        assert warning.filename == __file__

    def test_state_on_another_basis_raises(self):
        params, frame, _ = doublet_setup(m=2)
        _, _, other = doublet_setup(m=1)
        h0 = build_interaction_hamiltonian(params)
        sched = DriveSchedule(constant_latitude_loop(0.7, 16), 30.0)
        with pytest.raises(
            ValueError, match="^hamiltonian, frame and state must share a basis$"
        ):
            adiabatic_evolution(h0, frame, sched, other)

    def test_start_off_a_drive_charge_eigenspace_raises(self):
        # equal weight on every basis state mixes eigenvalues of K
        params, frame, _ = doublet_setup(m=2)
        h0 = build_interaction_hamiltonian(params)
        mixed = StateVector(frame.basis, np.full(frame.basis.dim, frame.basis.dim**-0.5))
        sched = DriveSchedule(constant_latitude_loop(0.7, 16), 30.0)
        with pytest.raises(
            ValueError, match="^the initial state is not an eigenvector of K$"
        ):
            adiabatic_evolution(h0, frame, sched, mixed)

    def test_unnormalized_start_raises_norm_drift(self):
        # the Magnus step is unitary, so a norm error in the initial state
        # survives to the end-of-run guard
        params, frame, state = doublet_setup(m=2, delta=0.4)
        h0 = build_interaction_hamiltonian(params)
        path = constant_latitude_loop(0.7, 16)
        off = StateVector(frame.basis, state.amplitudes * (1.0 + 1e-6))
        with pytest.raises(NormDrift):
            adiabatic_evolution(h0, frame, DriveSchedule(path, 30.0), off)


class TestMagnusAgainstRK4:
    """The Magnus stepper against the RK4 oracle (conftest.rk4_reference)."""

    @pytest.mark.parametrize("m,loop", [(1, "latitude"), (3, "latitude"), (1, "poly")])
    def test_gamma_total_agrees(self, rk4_reference, m, loop):
        params, frame, state = doublet_setup(m=m, delta=0.3)
        h0 = build_interaction_hamiltonian(params)
        if loop == "latitude":
            path = default_latitude_loop(m, 0.6, 96)
        else:
            phis = np.linspace(0.0, TWO_PI, 25)
            thetas = 0.9 + 0.15 * np.sin(2.0 * phis)
            path = polygon_loop(np.column_stack([thetas, phis]))
        sched = DriveSchedule(path, 60.0)
        _, fast = adiabatic_evolution(h0, frame, sched, state)
        with rk4_reference():
            _, ref = adiabatic_evolution(h0, frame, sched, state)
        assert ref.n_steps > 10 * fast.n_steps
        assert fast.gamma_total == pytest.approx(ref.gamma_total, abs=1e-5)

    def test_step_diagnostics(self):
        params, frame, state = doublet_setup(m=2, delta=0.3)
        h0 = build_interaction_hamiltonian(params)
        path = default_latitude_loop(2, 0.8, 96)
        sched = DriveSchedule(path, 40.0)
        _, report = adiabatic_evolution(h0, frame, sched, state)
        diag = report.diagnostics
        assert diag["propagator"] == "magnus4-comoving"
        assert diag["n_steps"] == report.n_steps >= path.segments
        assert diag["dt"] * diag["n_steps"] == pytest.approx(40.0)
        # a latitude loop never bends, so its steps are the rule's, all equal
        energy = np.abs(np.linalg.eigvalsh(h0.matrix)).max()
        rate = sum(sched.peak_rates())
        assert diag["n_steps"] == magnus_step_count(40.0, energy, rate, path.segments)
        assert (energy * diag["dt"]) * (rate * diag["dt"]) <= STEP_AREA * (1.0 + 1e-12)
        assert energy * diag["dt"] <= STEP_PHASE * (1.0 + 1e-12)
        assert diag["norm_drift"] < 1e-12


class TestComovingFrame:
    """The co-moving stepper and the conserved drive charge K it rests on."""

    @pytest.mark.parametrize(
        "params", [ModelParams(m=1, delta_m=0.3), ModelParams(m=2, n=1, n_prime=2),
                   ModelParams(m=3, delta_m=-1.1, n=2)],
        ids=["m1", "m2", "m3"],
    )
    def test_charge_commutes_with_exchange_model(self, params):
        frame = schwinger_frame(default_basis(params))
        h0 = build_interaction_hamiltonian(params).matrix
        k = np.diag(drive_charge(frame))
        assert np.abs(h0).max() > 0.5
        assert np.abs(k @ h0 - h0 @ k).max() == 0.0
        # and K is J_z + (m/4) sigma_z
        sigma_z = np.diag([1.0 if lab[0] == SPIN_UP else -1.0 for lab in frame.basis.states])
        assert np.abs(k - frame.j_z.matrix - 0.25 * params.m * sigma_z).max() == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_charge_commutes_with_sideband_hamiltonian(self, m):
        trap = TrapParams(g=g_for_unit_coupling(0.1, m), eta=0.1, m=m, delta_m=0.7)
        basis = ramsey_basis(m)
        h0 = sideband_hamiltonian(trap, basis).matrix
        k = np.diag(drive_charge(schwinger_frame(basis)))
        assert np.abs(k @ h0 - h0 @ k).max() == 0.0

    def test_charge_needs_two_modes(self):
        frame = schwinger_frame(two_anyon_basis(TwoAnyonParams(m=2)))
        with pytest.raises(
            ValueError, match="^the co-moving frame needs a qubit and two modes$"
        ):
            drive_charge(frame)

    def test_non_commuting_hamiltonian_raises(self):
        params, frame, state = doublet_setup(m=2)
        h0 = build_interaction_hamiltonian(params).matrix + 0.1 * frame.j_y.matrix
        sched = DriveSchedule(constant_latitude_loop(0.7, 16), 30.0)
        with pytest.raises(SimulationError, match="commute"):
            next(comoving_evolve(h0, frame, [sched], state.amplitudes[None]))

    @pytest.mark.parametrize(
        "m,revolutions,start",
        [
            pytest.param(m, r, start, id=f"{m}-{r}" + "-random" * (start == "random"))
            for start in ("dressed", "random")
            for m, r in [(1, 2), (2, 1), (3, 1)]
        ],
    )
    def test_uniform_latitude_drive_is_one_exponential(self, m, revolutions, start, rng):
        # theta' = 0 and phi' = 2 pi revolutions / T are constant, so H_xi is
        # constant and the whole drive is exp(-i T H_xi); H_xi is built here
        # from R_y and sigma_z, not from the stepper's J_x form of B(theta).
        # The random start has amplitude in every block, so every state is
        # stepped.
        params, frame, state = doublet_setup(m=m, delta=0.4)
        if start == "random":
            z = np.array([1.0, 1j]) @ rng.normal(size=(2, frame.basis.dim))
            state = StateVector(frame.basis, z / np.linalg.norm(z))
        h0 = build_interaction_hamiltonian(params).matrix
        theta, total = 0.9, 60.0
        path = constant_latitude_loop(theta, 64, revolutions=revolutions)
        sched = DriveSchedule(path, total, time_parametrization="uniform")
        r_y = scipy.linalg.expm(-1j * theta * frame.j_y.matrix)
        sigma_z = np.diag([1.0 if lab[0] == SPIN_UP else -1.0 for lab in frame.basis.states])
        b = r_y.conj().T @ frame.j_z.matrix @ r_y + 0.25 * m * sigma_z
        h_xi = h0 - (TWO_PI * revolutions / total) * b
        want = scipy.linalg.expm(-1j * total * h_xi) @ state.amplitudes
        blocks = list(comoving_evolve(h0, frame, [sched], state.amplitudes[None]))
        times = np.concatenate([t for t, _ in blocks])
        assert len(times) >= path.segments and times[-1] == pytest.approx(total)
        assert np.abs(blocks[-1][1][-1, 0] - want).max() < 1e-11

    @pytest.mark.parametrize("case,kept", [("m1", 3), ("m2", 4), ("m3", 5), ("ramsey", 5)])
    def test_only_the_reachable_block_is_stepped(self, monkeypatch, case, kept):
        # H_xi conserves Q = N + m [spin up]: outside the Q blocks of the
        # start state every yielded amplitude is exactly 0, and the
        # exponential only sees the blocks inside them: the Ramsey wait's
        # doublet block of 4, while its spectator, a block of 1, needs none
        starts, blocks, shapes = [], [], []
        evolve, propagators = berry.comoving_evolve, berry._propagators

        def recording_evolve(h0, frame, schedules, xi):
            starts.append((frame.basis, xi))
            for t, states in evolve(h0, frame, schedules, xi):
                blocks.append(states)
                yield t, states

        def recording_propagators(gen):
            shapes.append(gen.shape)
            return propagators(gen)

        monkeypatch.setattr(berry, "comoving_evolve", recording_evolve)
        monkeypatch.setattr(berry, "_propagators", recording_propagators)
        if case == "ramsey":
            trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
            ramsey_sweep(trap, [math.pi], 60.0)
        else:
            params, frame, state = doublet_setup(m=int(case[1:]))
            h0 = build_interaction_hamiltonian(params)
            sched = DriveSchedule(constant_latitude_loop(0.7, 32), 60.0)
            adiabatic_evolution(h0, frame, sched, state)
        [(basis, xi)] = starts
        m = basis.sector_totals[-1] - basis.sector_totals[0]
        q = np.array([sum(s[1:]) + m * (s[0] == SPIN_UP) for s in basis.states])
        inside = np.isin(q, q[(xi != 0).any(axis=0)])
        assert inside.sum() == kept < basis.dim
        assert blocks and all(np.all(states[..., ~inside] == 0) for states in blocks)
        stepped = 4 if case == "ramsey" else kept
        assert shapes and {s[-2:] for s in shapes} == {(stepped, stepped)}

    @pytest.mark.parametrize("n", [1, 4, 6])
    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 63, 64, 65, 489])
    def test_step_products_match_a_sequential_chain(self, k, points, n, rng):
        # the block chain against one step at a time, through the padding of
        # the last block, for n = 1 the one-state phase path and for n = 6
        # the np.matmul side of the exponential
        a = rng.normal(size=(k, points, n, n, 2)) @ np.array([1.0, 1j])
        gen = 0.5 * (a + a.conj().swapaxes(-1, -2))
        x = rng.normal(size=(points, n)) + 1j * rng.normal(size=(points, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        want, state = [], x
        for step in gen:
            state = np.array([scipy.linalg.expm(-1j * g) @ v for g, v in zip(step, state)])
            want.append(state)
        got = berry._step_products(gen, x)
        assert got.shape == (k, points, n)
        assert np.abs(got - np.array(want)).max() < 1e-13

    @pytest.mark.parametrize("largest", [0.999, 20.0])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_propagators_match_expm(self, n, largest, rng):
        # both product layouts (n <= STEP_AXIS_STATES and above), on stacks
        # of 1-norms from 0.1 up to 0.999, which take no squaring, or up to
        # 20, which the whole stack takes five squarings for. Half the
        # generators are diagonal, so their spectral radius is their 1-norm
        # and a polynomial of degree 15 would miss by 5e-14 near norm 1
        assert 2 <= berry.STEP_AXIS_STATES < 10
        a = rng.normal(size=(24, 2, n, n, 2)) @ np.array([1.0, 1j])
        gen = 0.5 * (a + a.conj().swapaxes(-1, -2))
        gen[:, 1] *= np.eye(n)
        norms = np.geomspace(0.1, largest, 48).reshape(24, 2)
        gen *= (norms / np.abs(gen).sum(axis=-2).max(axis=-1))[..., None, None]
        got = berry._propagators(gen)
        assert got.shape == gen.shape
        assert np.abs(got - scipy.linalg.expm(-1j * gen)).max() <= 1e-14
        assert np.abs(got @ got.conj().swapaxes(-1, -2) - np.eye(n)).max() <= 1e-14

    @pytest.mark.parametrize("m,kept", [(1, 3), (2, 4), (3, 5)])
    def test_one_point_run_is_one_propagators_call(self, monkeypatch, m, kept):
        # a one-point run of at most GENERATORS steps builds every generator
        # at once: one exponential call for its one Q block
        shapes, propagators = [], berry._propagators

        def recording_propagators(gen):
            shapes.append(gen.shape)
            return propagators(gen)

        params, frame, state = doublet_setup(m=m, delta=0.3)
        h0 = build_interaction_hamiltonian(params)
        sched = DriveSchedule(default_latitude_loop(m, 0.8, 96), 125.0)
        monkeypatch.setattr(berry, "_propagators", recording_propagators)
        _, report = adiabatic_evolution(h0, frame, sched, state)
        assert report.n_steps <= berry.GENERATORS
        assert shapes == [(report.n_steps, 1, kept, kept)]

    def test_propagators_see_a_bounded_batch_at_1000_points(self, monkeypatch):
        # a sweep of cli.MAX_OMEGA_POINTS points steps them in batches of at
        # most GENERATORS generators, so one exponential call never stacks
        # them all
        stacks, propagators = [], berry._propagators

        def recording_propagators(gen):
            stacks.append(gen.shape)
            return propagators(gen)

        monkeypatch.setattr(berry, "_propagators", recording_propagators)
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        rows = ramsey_sweep(trap, np.linspace(0.0, 0.5, 1000), 20.0, n_steps=16)
        assert len(rows) == 1000
        assert {s[-2:] for s in stacks} == {(4, 4)}
        assert sum(s[0] * s[1] for s in stacks) == 1000 * rows[0]["n_steps"]
        assert max(s[0] * s[1] for s in stacks) <= berry.GENERATORS == 4096
        # 16 chunks of at most 64 points, stepped 64 steps at a time: a large
        # sweep is not cut into batches of 4,096 // 1,000 = 4 steps
        assert max(s[1] for s in stacks) == 64
        assert len(stacks) == 16 * -(-rows[0]["n_steps"] // 64)

    @pytest.mark.parametrize("route", ["ramsey", "adiabatic"])
    def test_time_routes_stack_no_eigh(self, monkeypatch, route):
        # the stepper's propagators come from _propagators alone: what eigh
        # still sees is one full (d, d) matrix at a time, the carrier
        # pulse's exponential and the frame's J_y eigensystem, never a stack
        # of generators beside the polynomial
        shapes, eigh = [], np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        if route == "ramsey":
            trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
            rows = ramsey_sweep(trap, [0.0, math.pi], 60.0, pulse_mode="timed")
            dim, steps = ramsey_basis(2).dim, rows[0]["n_steps"]
        else:
            params, frame, state = doublet_setup(m=3)
            h0 = build_interaction_hamiltonian(params)
            sched = DriveSchedule(constant_latitude_loop(0.7, 32), 60.0)
            dim, steps = frame.basis.dim, adiabatic_evolution(h0, frame, sched, state)[1].n_steps
        assert steps > 2
        assert len(shapes) <= 2 and all(s == (dim, dim) for s in shapes)

    def test_schedules_must_share_the_step_grid(self):
        params, frame, state = doublet_setup(m=2)
        h0 = build_interaction_hamiltonian(params).matrix
        path = constant_latitude_loop(0.7, 16)
        scheds = [DriveSchedule(path, 30.0), DriveSchedule(path, 40.0)]
        xi = np.stack([state.amplitudes] * 2)
        with pytest.raises(ValueError, match="step times"):
            next(comoving_evolve(h0, frame, scheds, xi))

    def test_step_grid_is_built_once_per_run(self, monkeypatch):
        # five points on one grid: one eigvalsh for the step count and one
        # grid; a schedule with a bend the others lack does not share it
        params, frame, state = doublet_setup(m=2)
        h0 = build_interaction_hamiltonian(params).matrix
        scheds = [DriveSchedule(constant_latitude_loop(t, 16), 30.0) for t in (0.3, 0.6, 0.9, 1.2, 1.5)]
        xi = np.stack([state.amplitudes] * 5)
        calls = []
        for module, name in ((np.linalg, "eigvalsh"), (DriveSchedule, "step_times")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, f=original, n=name: calls.append(n) or f(*a)
            )
        assert len(list(comoving_evolve(h0, frame, scheds, xi))) == 1
        assert calls == ["eigvalsh", "step_times"]
        bent = constant_latitude_loop(0.7, 16).samples.copy()
        bent[4:13, 0] += 0.05 * np.minimum(np.arange(9), np.arange(8, -1, -1))
        polygon = LoopPath(bent, omega_solid=0.0)
        with pytest.raises(ValueError, match="step times"):
            next(comoving_evolve(h0, frame, [scheds[0], DriveSchedule(polygon, 30.0)], xi[:2]))

    def test_step_ceiling_raises_before_stepping(self, monkeypatch):
        params, frame, state = doublet_setup(m=2)
        h0 = build_interaction_hamiltonian(params)
        sched = DriveSchedule(constant_latitude_loop(0.7, 96), 1e12)
        steps = []
        monkeypatch.setattr(berry, "_propagators", lambda *a: steps.append(a))
        with pytest.raises(StepLimit, match="MAX_STEPS"):
            adiabatic_evolution(h0, frame, sched, state)
        assert steps == []  # no Magnus step was built
        assert issubclass(StepLimit, ValueError)
        with pytest.raises(StepLimit):
            magnus_step_count(10.0, 1.0, 1.0, MAX_STEPS + 1)


class TestBudget:
    def test_verdicts_track_drive_speed(self):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        path = constant_latitude_loop(math.pi / 2, 96)
        slow = adiabaticity_budget(trap, DriveSchedule(path, 250.0))
        by_name = {e.name: e for e in slow}
        assert by_name["phi_rate_over_coupling"].verdict == "pass"
        assert by_name["theta_rate_over_coupling"].ratio == 0.0
        assert by_name["detuning_over_trap"].verdict == "skipped"

        warn = adiabaticity_budget(trap, DriveSchedule(path, 25.0))
        assert {e.name: e for e in warn}["phi_rate_over_coupling"].verdict == "warn"

        fast = adiabaticity_budget(trap, DriveSchedule(path, 5.0))
        assert {e.name: e for e in fast}["phi_rate_over_coupling"].verdict == "fail"

    def test_detuning_entry_uses_trap_frequency(self):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2, nu=50.0, delta_m=0.5)
        path = constant_latitude_loop(1.0, 96)
        entries = adiabaticity_budget(trap, DriveSchedule(path, 100.0))
        entry = {e.name: e for e in entries}["detuning_over_trap"]
        assert entry.ratio == pytest.approx(0.01)
        assert entry.verdict == "pass"
