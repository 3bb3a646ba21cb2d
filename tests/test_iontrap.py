"""Sideband couplings and the simulated Ramsey read-out.

The occupation-dependent coupling series is checked against matrix
elements of the exponentiated kick operator exp(i eta (a + a^dag)) on a
large plain Fock space, which is how the physical coupling arises in the
first place and shares no code with the series implementation.
"""

import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from anyonjc import berry, iontrap
from anyonjc.berry import (
    MAX_STEPS,
    STEP_AREA,
    STEP_PHASE,
    DriveSchedule,
    magnus_step_count,
)
from anyonjc.errors import NonAdiabatic, StepLimit, TruncationWarning
from anyonjc.fock import SPIN_DOWN, SPIN_UP
from anyonjc.iontrap import (
    TrapParams,
    carrier_pulse_operator,
    coupling_strength,
    effective_model,
    g_for_unit_coupling,
    lamb_dicke_lambda,
    predicted_p_down,
    pulse_beta,
    ramsey_basis,
    ramsey_schedule,
    ramsey_sweep,
    sideband_hamiltonian,
    snap_to_cycles,
    vacuum_splitting,
)
from anyonjc.model import analytic_berry_phase


def kick_matrix_element(eta: float, n: int, m: int, n_max: int = 60) -> float:
    """|<n+m| exp(i eta (a + a^dag)) |n>| on a plain truncated Fock space."""
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    kick = scipy.linalg.expm(1j * eta * (a + a.T))
    return abs(kick[n + m, n])


class TestCouplingSeries:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_matches_displacement_oracle(self, m, n):
        trap = TrapParams(g=2.0, eta=0.12, m=max(m, 1))
        f = coupling_strength(trap, n, order=m)
        ladder = math.sqrt(math.prod(range(n + 1, n + m + 1)))
        want = (trap.g / 2.0) * kick_matrix_element(trap.eta, n, m)
        assert abs(f) * ladder == pytest.approx(want, rel=1e-10)

    def test_carrier_strength(self):
        trap = TrapParams(g=3.0, eta=0.2, m=1)
        f0 = coupling_strength(trap, 0, order=0)
        assert f0 == pytest.approx(1.5 * math.exp(-0.02))
        tiny = TrapParams(g=3.0, eta=1e-8, m=1)
        assert coupling_strength(tiny, 0, order=0) == pytest.approx(1.5)

    def test_frozen_first_sideband(self):
        trap = TrapParams(g=1.0, eta=0.05, m=1)
        assert coupling_strength(trap, 0) == pytest.approx(0.02496877, abs=1e-8)

    def test_vacuum_coupling_equals_effective_lambda(self):
        for m in (1, 2, 3):
            trap = TrapParams(g=7.3, eta=0.11, m=m)
            assert coupling_strength(trap, 0) == abs(lamb_dicke_lambda(trap))

    def test_frozen_effective_lambda(self):
        trap = TrapParams(g=1.0, eta=0.1, m=2)
        assert abs(lamb_dicke_lambda(trap)) == pytest.approx(
            0.0025 * math.exp(-0.005), rel=1e-12
        )

    def test_unit_coupling_helper(self):
        for m in (1, 2, 3):
            trap = TrapParams(g=g_for_unit_coupling(0.1, m), eta=0.1, m=m)
            assert effective_model(trap).lambda_m == pytest.approx(1.0, rel=1e-12)

    def test_occupation_dependence_is_weak(self):
        for m in (1, 2, 3):
            trap = TrapParams(g=1.0, eta=0.1, m=m)
            f0 = coupling_strength(trap, 0)
            f1 = coupling_strength(trap, 1)
            assert abs(f1 / f0 - 1.0) == pytest.approx(
                trap.eta**2 / (m + 1), rel=1e-10
            )

    def test_marginal_basis_warns(self):
        trap = TrapParams(g=1.0, eta=0.35, m=2)
        with pytest.warns(TruncationWarning):
            sideband_hamiltonian(trap, ramsey_basis(2))

    def test_factorials_beyond_the_float_range_raise(self):
        big = TrapParams(g=1.0, eta=0.1, m=200)
        for call in (
            lambda: g_for_unit_coupling(0.1, 200),
            lambda: lamb_dicke_lambda(big),
            lambda: coupling_strength(big, 0),
        ):
            with pytest.raises(ValueError, match="beyond the float range"):
                call()
        # m = 100 has a finite m!, but f_100(100) takes 200!; the basis it
        # cannot build raises before the marginal-basis warning
        trap = TrapParams(g=1.0, eta=0.1, m=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"f_100\(100\) takes factorials"):
                sideband_hamiltonian(trap, ramsey_basis(100))


class TestTrapParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrapParams(g=0.0, eta=0.1)
        with pytest.raises(ValueError):
            TrapParams(g=1.0, eta=1.2)
        with pytest.raises(ValueError):
            TrapParams(g=1.0, eta=0.1, m=-1)
        for bad in ({"g": math.nan}, {"g": math.inf}, {"delta_m": math.nan}):
            with pytest.raises(ValueError):
                TrapParams(**{"g": 1.0, "eta": 0.1, **bad})

    def test_rejects_negative_trap_frequency_and_order(self):
        with pytest.raises(ValueError, match="nu must be non-negative"):
            TrapParams(g=1.0, eta=0.1, nu=-1.0)
        with pytest.raises(ValueError, match="nu must be non-negative"):
            TrapParams(g=1.0, eta=0.1, nu=float("nan"))
        # a named message, not factorial()'s
        with pytest.raises(ValueError, match="sideband order m"):
            g_for_unit_coupling(0.1, -1)

    def test_effective_model_carries_detuning(self):
        trap = TrapParams(g=1.0, eta=0.1, m=2, delta_m=0.7)
        model = effective_model(trap)
        assert model.m == 2
        assert model.delta_m == 0.7

    def test_sideband_hamiltonian_element(self):
        trap = TrapParams(g=2.0, eta=0.1, m=2)
        basis = ramsey_basis(2)
        h = sideband_hamiltonian(trap, basis)
        row = basis.index((SPIN_DOWN, 2, 0))
        col = basis.index((SPIN_UP, 0, 0))
        want = coupling_strength(trap, 0) * math.sqrt(2.0)
        assert h.matrix[row, col] == pytest.approx(want, rel=1e-12)
        assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-15

    def test_sideband_hamiltonian_rejects_the_carrier(self):
        trap = TrapParams(g=2.0, eta=0.1, m=0)
        with pytest.raises(
            ValueError, match="^sideband order must be at least 1; see carrier_pulse_operator$"
        ):
            sideband_hamiltonian(trap, ramsey_basis(1))


class TestPulses:
    def test_beta_values(self):
        trap = TrapParams(g=1.0, eta=0.1, m=2)
        assert pulse_beta(trap, "instantaneous") == pytest.approx(math.pi / 2)
        assert pulse_beta(trap, "timed") == pytest.approx(
            (math.pi / 2) * math.exp(-0.005)
        )

    def test_timed_pulse_is_unitary_and_rotates(self):
        trap = TrapParams(g=50.0, eta=0.1, m=2)
        basis = ramsey_basis(2)
        u = carrier_pulse_operator(trap, basis, "timed").matrix
        eye = np.eye(basis.dim)
        assert np.abs(u @ u.conj().T - eye).max() < 1e-11
        start = np.zeros(basis.dim, dtype=complex)
        start[basis.index((SPIN_DOWN, 0, 0))] = 1.0
        out = u @ start
        p_up = abs(out[basis.index((SPIN_UP, 0, 0))]) ** 2
        beta = pulse_beta(trap, "timed")
        assert p_up == pytest.approx(math.sin(beta / 2.0) ** 2, abs=1e-4)

    @staticmethod
    def sigma_phi(basis):
        """e^{i phi} sigma_+ + e^{-i phi} sigma_- at the laser phase, by hand."""
        mat = np.zeros((basis.dim, basis.dim), dtype=complex)
        for col, (spin, *occ) in enumerate(basis.states):
            if spin == SPIN_DOWN:
                mat[basis.index((SPIN_UP, *occ)), col] = np.exp(1j * iontrap.LASER_PHASE)
            else:
                mat[basis.index((SPIN_DOWN, *occ)), col] = np.exp(-1j * iontrap.LASER_PHASE)
        return mat

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.3, 0.5, 0.7, 0.9])
    def test_timed_pulse_is_the_carrier_exponential(self, m, eta):
        # exp(-i pi H_c / 2g), H_c = f_0(n_a) sigma_phi, by a general exponential
        trap = TrapParams(g=g_for_unit_coupling(eta, m), eta=eta, m=m)
        basis = ramsey_basis(m)
        f0 = np.array([coupling_strength(trap, lab[1], order=0) for lab in basis.states])
        h_c = f0[:, None] * self.sigma_phi(basis)
        want = scipy.linalg.expm(-1j * math.pi / (2.0 * trap.g) * h_c)
        u = carrier_pulse_operator(trap, basis, "timed").matrix
        assert np.abs(u - want).max() <= 1e-15
        assert np.abs(u @ u.conj().T - np.eye(basis.dim)).max() <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_instantaneous_pulse_is_the_closed_form(self, m):
        trap = TrapParams(g=1.0, eta=0.1, m=m)
        basis = ramsey_basis(m)
        angle = 0.25 * math.pi
        want = math.cos(angle) * np.eye(basis.dim) - 1j * math.sin(angle) * self.sigma_phi(basis)
        u = carrier_pulse_operator(trap, basis, "instantaneous").matrix
        assert np.array_equal(u, want)

    def test_predicted_p_down(self):
        trap = TrapParams(g=1.0, eta=0.1, m=2)
        beta = pulse_beta(trap, "timed")
        assert predicted_p_down(trap, 0.0, "timed") == pytest.approx(
            (1.0 - math.sin(beta)) / 2.0
        )
        assert predicted_p_down(trap, math.pi / 2, "instantaneous") == (
            pytest.approx(0.5)
        )

    @pytest.mark.parametrize(
        "call", [pulse_beta, lambda trap, mode: predicted_p_down(trap, 0.0, mode)]
    )
    def test_unknown_pulse_mode_raises(self, call):
        trap = TrapParams(g=1.0, eta=0.1, m=2)
        with pytest.raises(ValueError, match="pulse_mode must be one of"):
            call(trap, "bogus")


class TestCycles:
    def test_snap_finds_integer_cycles(self):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        assert vacuum_splitting(trap) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        snapped, j, residual = snap_to_cycles(trap, 200.0)
        assert j == 45
        assert snapped == pytest.approx(45 * 2.0 * math.pi / math.sqrt(2.0), rel=1e-12)
        assert residual == pytest.approx(abs(200.0 - snapped))

    @pytest.mark.parametrize("total_time", [0.0, -5.0, math.nan])
    def test_snap_rejects_a_nonpositive_wait(self, total_time):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        with pytest.raises(ValueError, match="^total_time must be positive$"):
            snap_to_cycles(trap, total_time)

    def test_snap_rejects_a_detuning_whose_square_overflows(self):
        # delta^2 above the float range: an infinite splitting, no cycle
        trap = TrapParams(g=1.0, eta=0.1, m=1, delta_m=1e300)
        assert vacuum_splitting(trap) == math.inf
        with pytest.raises(ValueError, match="has no finite cycle"):
            snap_to_cycles(trap, 1e10)

    @pytest.mark.parametrize(
        "trap, total_time",
        [
            # 1e200 / (2 pi / 5e149) overflows: round(inf) would raise OverflowError
            (TrapParams(g=1.0, eta=0.1, m=1, delta_m=1e150), 1e200),
            # a finite number of cycles whose product with the cycle rounds to inf
            (TrapParams(g=4.64, eta=0.1, m=1), sys.float_info.max),
        ],
        ids=["cycles", "snapped"],
    )
    def test_snap_rejects_a_wait_with_no_finite_snap(self, trap, total_time):
        with pytest.raises(ValueError, match="no finite number of doublet cycles"):
            snap_to_cycles(trap, total_time)

    @pytest.mark.parametrize(
        "run",
        [snap_to_cycles, lambda trap, t: ramsey_sweep(trap, [1.0], t)],
        ids=["snap", "sweep"],
    )
    def test_rejects_an_infinite_wait(self, run):
        # round(inf) would raise OverflowError
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        with pytest.raises(ValueError, match="^total_time must be finite$"):
            run(trap, math.inf)


class TestProtocol:
    def test_zero_area_instantaneous_pulses_cancel(self):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        [row] = ramsey_sweep(trap, [0.0], 200.0, pulse_mode="instantaneous")
        assert row["p_down"] < 1e-6
        assert row["leak"] < 1e-12

    def test_zero_area_timed_pulse_floor(self):
        # timed pulses leave a small, time-independent excitation floor
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        [row] = ramsey_sweep(trap, [0.0], 200.0)
        assert row["p_down"] < 1e-3

    def test_single_point_matches_prediction(self):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        [row] = ramsey_sweep(trap, [math.pi], 200.0)
        gamma = analytic_berry_phase(effective_model(trap), math.pi)
        assert gamma == pytest.approx(math.pi / 2.0)
        want = predicted_p_down(trap, gamma, "timed")
        assert row["p_down"] == pytest.approx(want, abs=1e-2)
        assert row["gamma_inferred"] == pytest.approx(gamma, abs=1e-2)
        assert snap_to_cycles(trap, row["total_time"])[1] == 45
        assert row["branch_transfer"] < 1e-2

    def test_p_down_agrees_with_rk4_oracle(self, rk4_reference):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        [fast] = ramsey_sweep(trap, [2.0 * math.pi], 100.0)
        with rk4_reference():
            [ref] = ramsey_sweep(trap, [2.0 * math.pi], 100.0)
        assert ref["n_steps"] > 10 * fast["n_steps"]
        assert fast["p_down"] == pytest.approx(ref["p_down"], abs=1e-6)
        total_time, n_steps = fast["total_time"], fast["n_steps"]
        dt = total_time / n_steps
        energy = np.abs(np.linalg.eigvalsh(sideband_hamiltonian(trap, ramsey_basis(2)).matrix)).max()
        path = ramsey_schedule(trap, 2.0 * math.pi, 100.0, 256).path
        rate = sum(DriveSchedule(path, total_time).peak_rates())
        assert n_steps == magnus_step_count(total_time, energy, rate, path.segments)
        assert (energy * dt) * (rate * dt) <= STEP_AREA * (1.0 + 1e-12)
        assert energy * dt <= STEP_PHASE * (1.0 + 1e-12)
        assert fast["norm_drift"] < 1e-12

    def test_detuned_point_agrees_with_rk4_oracle(self, rk4_reference):
        # far off resonance |E| is about delta / 2, yet the co-moving steps
        # follow the drive: a few times fewer than the lab rule E T / 0.17
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2, delta_m=24.0)
        [fast] = ramsey_sweep(trap, [2.0], 24.0, pulse_mode="instantaneous")
        with rk4_reference():
            [ref] = ramsey_sweep(trap, [2.0], 24.0, pulse_mode="instantaneous")
        assert fast["p_down"] == pytest.approx(ref["p_down"], abs=1e-6)
        h0 = sideband_hamiltonian(trap, ramsey_basis(2)).matrix
        lab_steps = np.abs(np.linalg.eigvalsh(h0)).max() * fast["total_time"] / 0.17
        assert fast["n_steps"] < lab_steps / 3.0

    def test_snapped_wait_closes_the_loop(self):
        # a request off the cycle grid must run exactly as a request at the
        # snapped wait: the drive covers the whole loop in the time it is given
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        snapped, _, residual = snap_to_cycles(trap, 202.0)
        assert residual > 2.0
        [off] = ramsey_sweep(trap, [2.0 * math.pi], 202.0)
        [on] = ramsey_sweep(trap, [2.0 * math.pi], snapped)
        assert off["total_time"] == on["total_time"]
        assert off["p_down"] == pytest.approx(on["p_down"], abs=1e-12)

    def test_fast_drive_raises(self):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        with pytest.raises(NonAdiabatic):
            ramsey_sweep(trap, [4.0 * math.pi], 3.0)

    @pytest.mark.parametrize(
        "omega,total_time,n_steps",
        [(0.0, 200.0, 256), (3.0, 202.0, 256), (4.0 * math.pi, 20.0, 1500)],
    )
    def test_sweep_rows_carry_the_wait_step_count(self, omega, total_time, n_steps):
        # the step rule (517 steps at T = 200, snapped from 202 too) or
        # the loop samples (1,500 at T = 20), whichever is more
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        [row] = ramsey_sweep(trap, [omega], total_time, n_steps=n_steps)
        assert row["n_steps"] == (1500 if n_steps == 1500 else 517)

    @pytest.mark.parametrize(
        "delta,total_time,pulse_mode,omegas",
        [
            pytest.param(0.0, t, mode, list(np.linspace(0.0, 4.0 * math.pi, 9)),
                         id=f"grid-{t:g}-{mode}")
            for t in (100.0, 200.0)
            for mode in ("timed", "instantaneous")
        ]
        + [
            pytest.param(24.0, 24.0, "instantaneous", [2.0], id="detuned"),
            pytest.param(0.0, 202.0, "timed", [0.0, 2.0 * math.pi, 4.0 * math.pi],
                         id="off-cycle"),
        ],
    )
    def test_sweep_rows_match_per_point_protocol(
        self, delta, total_time, pulse_mode, omegas
    ):
        # the sweep steps its points as one batch; a batch must equal its
        # one-point sweeps
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2, delta_m=delta)
        rows = ramsey_sweep(trap, omegas, total_time, pulse_mode=pulse_mode)
        for omega, row in zip(omegas, rows):
            [one] = ramsey_sweep(trap, [omega], total_time, pulse_mode=pulse_mode)
            for key in ("p_down", "leak", "norm_drift", "branch_transfer"):
                assert row[key] == pytest.approx(one[key], abs=1e-12)
            assert row["n_steps"] == one["n_steps"]
            schedule = ramsey_schedule(trap, omega, total_time, 256)
            assert row["total_time"] == one["total_time"] == schedule.total_time

    def test_sweep_warns_once_at_the_caller(self):
        trap = TrapParams(g=g_for_unit_coupling(0.5, 2), eta=0.5, m=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ramsey_sweep(trap, [0.0, 1.0, 2.0], 200.0)
        [warning] = [w for w in caught if issubclass(w.category, TruncationWarning)]
        assert warning.filename == __file__

    def test_sweep_step_limit_raises_before_any_propagator(self, monkeypatch):
        # 1,000 points of 1,001 steps each: just above MAX_STEPS, found
        # before the loops of all points are built or any step is taken
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        calls = []
        monkeypatch.setattr(berry, "_propagators", lambda *a: calls.append(a))
        omegas = np.linspace(0.0, 4.0 * math.pi, 1000)
        with pytest.raises(StepLimit, match=f"MAX_STEPS = {MAX_STEPS}"):
            ramsey_sweep(trap, omegas, 200.0, n_steps=1001)
        assert calls == []

    def test_sweep_step_limit_raises_before_any_loop(self, monkeypatch):
        # every wait takes at least one step per loop segment, so 9 points
        # of 1,000,000 segments are over MAX_STEPS before a loop is built
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        built = []
        monkeypatch.setattr(iontrap, "constant_latitude_loop", lambda *a: built.append(a))
        omegas = np.linspace(0.0, 4.0 * math.pi, 9)
        with pytest.raises(StepLimit, match="9 points of at least 1000000 steps"):
            ramsey_sweep(trap, omegas, 200.0, n_steps=1_000_000)
        assert built == []

    def test_sweep_rows_are_csv_ready(self):
        trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
        rows = ramsey_sweep(trap, [0.0, math.pi], 120.0)
        assert len(rows) == 2
        assert list(rows[0]) == [
            "m",
            "eta",
            "g",
            "delta_m",
            "omega_solid",
            "total_time",
            "p_down",
            "gamma_inferred",
            "gamma_analytic",
            "leak",
            # the run record, which JSON output keeps and CSV leaves out
            "n_steps",
            "norm_drift",
            "branch_transfer",
        ]
        assert rows[1]["gamma_analytic"] == pytest.approx(math.pi / 2.0)
