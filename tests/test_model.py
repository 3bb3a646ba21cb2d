"""Interaction Hamiltonian, dressed doublets and their closed-form phases.

Oracle policy: every closed-form eigensystem quantity is checked against
numpy diagonalization of the independently built Hamiltonian, and phase
formulas against expectation values of the transport generator. Frozen
numbers below were computed by hand from the two-level block
(kappa^2 = (n+m)!/n!, splitting = sqrt(delta^2/4 + kappa^2)):

    m=1, delta=2: splitting sqrt(2), weights (2+sqrt(2))/4 and (2-sqrt(2))/4
    m=1, delta=10: ratio 1/(26 + 5 sqrt(26)) = 0.019419324...
    m=2, delta=10: ratio 2/(27 + 5 sqrt(27)) = 0.037749551...
"""

import math

import numpy as np
import pytest

from anyonjc.fock import (
    SPIN_DOWN,
    SPIN_UP,
    BasisSpec,
    DensityMatrix,
    linear_entropy,
    partial_trace,
)
from anyonjc.model import (
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
    falling_product,
    statistical_factor,
    two_anyon_analytic_phase,
    two_anyon_basis,
    two_anyon_eigenstate,
)
from anyonjc.paths import schwinger_frame


def doublet_block(params):
    """The 2x2 matrix of the Hamiltonian restricted to the doublet,
    assembled by hand from first principles."""
    kappa = math.sqrt(falling_product(params.n, params.m))
    g = params.lambda_m * kappa
    return np.array([[params.delta_m / 2.0, g], [g, -params.delta_m / 2.0]])


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(m=0)
        with pytest.raises(ValueError):
            ModelParams(m=2, lambda_m=-1.0)
        with pytest.raises(ValueError):
            ModelParams(m=1, n=-1)
        for bad in ({"delta_m": math.nan}, {"lambda_m": math.nan}, {"lambda_m": math.inf}):
            with pytest.raises(ValueError):
                ModelParams(m=2, **bad)

    def test_kappa_and_splitting(self):
        p = ModelParams(m=3, n=2)
        assert p.kappa == pytest.approx(math.sqrt(5 * 4 * 3))
        assert p.big_lambda == pytest.approx(
            math.sqrt(p.delta_m**2 / 4 + p.kappa**2)
        )

    def test_falling_product(self):
        # (n + m)! / n!, the m-step ladder normalization squared
        assert falling_product(5, 2) == 42
        assert falling_product(3, 0) == 1
        assert falling_product(2, 3) == 60
        assert falling_product(0, 4) == math.factorial(4)
        assert falling_product(0, 170) == math.factorial(170)

    @pytest.mark.parametrize("n,m", [(0, 171), (0, 10**12), (10**6, 60), (1000, 110)])
    def test_falling_product_beyond_the_float_range_raises(self, n, m):
        # m = 10^12 answers at once, without a product of 10^12 factors
        with pytest.raises(ValueError, match="beyond the float range"):
            falling_product(n, m)

    def test_large_m_raises_where_the_factorial_is_taken(self):
        params = ModelParams(m=200)
        with pytest.raises(ValueError, match="beyond the float range"):
            params.kappa
        with pytest.raises(ValueError, match="beyond the float range"):
            statistical_factor(params, math.pi)
        # m! is finite at m = 150, but the Hamiltonian takes 300!/150!,
        # which ended `phase --m 150 --adiabatic` in an OverflowError
        with pytest.raises(ValueError, match="at n = 150, m = 150 is beyond"):
            build_interaction_hamiltonian(ModelParams(m=150))

    @pytest.mark.parametrize(
        "build,states",
        [
            (lambda: default_basis(ModelParams(m=2, n=400)), 1608),
            (lambda: two_anyon_basis(TwoAnyonParams(m=30)), 1924),
        ],
    )
    def test_oversized_basis_raises(self, build, states):
        with pytest.raises(ValueError, match=f"{states} states is above MAX_BASIS_DIM"):
            build()


class TestHamiltonian:
    def test_coupling_element_value(self):
        params = ModelParams(m=2)
        basis = default_basis(params)
        h = build_interaction_hamiltonian(params)
        row = basis.index((SPIN_DOWN, 2, 0))
        col = basis.index((SPIN_UP, 0, 0))
        assert h.matrix[row, col] == pytest.approx(math.sqrt(2.0))
        assert np.abs(h.matrix - h.matrix.conj().T).max() == 0.0

    def test_block_spectrum_matches_hand_built(self):
        for m, n, delta in [(1, 0, 0.0), (2, 1, 1.3), (3, 0, -2.0)]:
            params = ModelParams(m=m, n=n, delta_m=delta)
            h = build_interaction_hamiltonian(params)
            want = sorted(np.linalg.eigvalsh(doublet_block(params)))
            got = sorted(np.linalg.eigvalsh(h.matrix))
            # the doublet eigenvalues are the extreme ones at zero detuning
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[-1] == pytest.approx(want[-1], abs=1e-12)

    def test_decoupled_limit_spectrum(self):
        # with the coupling off every bare state is an eigenvector at
        # +-delta/2 by its spin
        params = ModelParams(m=1, lambda_m=0.0, delta_m=0.6)
        basis = BasisSpec(2, (0, 1))
        h = build_interaction_hamiltonian(params)
        want = [0.3 if s == SPIN_UP else -0.3 for s, _, _ in basis.states]
        assert np.array_equal(h.matrix, np.diag(want))


class TestEigensystem:
    def test_frozen_weights_m1_delta2(self):
        params = ModelParams(m=1, delta_m=2.0)
        plus, minus = analytic_eigensystem(params)
        assert plus.c_up**2 == pytest.approx((2 + math.sqrt(2)) / 4)
        assert plus.c_down**2 == pytest.approx((2 - math.sqrt(2)) / 4)
        assert minus.c_up == pytest.approx(-plus.c_down)
        assert minus.c_down == pytest.approx(plus.c_up)
        assert plus.energy == pytest.approx(math.sqrt(2.0))
        assert minus.energy == pytest.approx(-math.sqrt(2.0))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.5, 2.0, -10.0])
    def test_residual_against_diagonalization(self, m, delta):
        for n, n_prime in [(0, 0), (1, 2)]:
            params = ModelParams(m=m, n=n, n_prime=n_prime, delta_m=delta)
            h = build_interaction_hamiltonian(params)
            for ds in analytic_eigensystem(params):
                v = dressed_state_vector(ds).amplitudes
                resid = h.matrix @ v - ds.energy * v
                assert np.abs(resid).max() < 1e-10

    def test_branches_orthonormal(self):
        params = ModelParams(m=2, delta_m=1.7)
        plus, minus = analytic_eigensystem(params)
        vp = dressed_state_vector(plus)
        vm = dressed_state_vector(minus)
        assert vp.norm == pytest.approx(1.0, abs=1e-14)
        assert abs(vp.overlap(vm)) < 1e-14

    def test_far_detuned_limits(self):
        up_like, _ = analytic_eigensystem(ModelParams(m=1, delta_m=1e8))
        assert up_like.c_up == pytest.approx(1.0, abs=1e-8)
        down_like, _ = analytic_eigensystem(ModelParams(m=1, delta_m=-1e8))
        assert down_like.c_down == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_coupling_raises(self):
        with pytest.raises(ValueError, match="lambda_m = 0 leaves the doublet uncoupled"):
            analytic_eigensystem(ModelParams(m=1, lambda_m=0.0, delta_m=0.0))


class TestPhaseFormulas:
    def test_resonant_value_is_quarter_m(self):
        for m in (1, 2, 3, 5):
            params = ModelParams(m=m)
            omega = 2.0 * math.pi
            assert analytic_berry_phase(params, omega) == pytest.approx(
                m * omega / 4.0
            )

    def test_matches_generator_expectation(self):
        # the closed form must equal Omega times the z generator average
        for m, delta, n, n_prime, branch in [
            (1, 0.0, 0, 0, "+"),
            (2, 1.5, 0, 0, "+"),
            (2, 1.5, 0, 0, "-"),
            (3, -0.7, 1, 2, "+"),
        ]:
            params = ModelParams(m=m, delta_m=delta, n=n, n_prime=n_prime)
            frame = schwinger_frame(default_basis(params))
            ds = analytic_eigensystem(params)[0 if branch == "+" else 1]
            state = dressed_state_vector(ds)
            jz_avg = float(
                np.real(
                    np.vdot(
                        state.amplitudes,
                        frame.jz_diagonal * state.amplitudes,
                    )
                )
            )
            omega = 1.37
            want = omega * jz_avg
            assert analytic_berry_phase(params, omega, branch=branch) == (
                pytest.approx(want, abs=1e-12)
            )

    def test_branch_symmetry_under_detuning_flip(self):
        omega = 2.0 * math.pi
        for delta in (0.3, 1.1, 4.0):
            gp = analytic_berry_phase(ModelParams(m=2, delta_m=delta), omega)
            gm = analytic_berry_phase(
                ModelParams(m=2, delta_m=-delta), omega, branch="-"
            )
            assert gm == pytest.approx(gp, abs=1e-12)

    def test_unknown_branch_raises(self):
        with pytest.raises(ValueError, match="branch must be"):
            analytic_berry_phase(ModelParams(m=2, delta_m=0.5), math.pi, branch="x")

    def test_solid_angle_range(self):
        params = ModelParams(m=1)
        with pytest.raises(ValueError, match=r"^solid angle -0\.1 outside \[0, 4\*pi\]$"):
            analytic_berry_phase(params, -0.1)
        with pytest.raises(ValueError, match=r"^solid angle 12\.66\d* outside \[0, 4\*pi\]$"):
            analytic_berry_phase(params, 4.0 * math.pi + 0.1)

    def test_ratio_frozen_values(self):
        assert detuning_ratio(ModelParams(m=1)) == pytest.approx(1.0)
        assert detuning_ratio(ModelParams(m=1, delta_m=10.0)) == pytest.approx(
            1.0 / (26.0 + 5.0 * math.sqrt(26.0)), rel=1e-12
        )
        assert detuning_ratio(ModelParams(m=2, delta_m=10.0)) == pytest.approx(
            2.0 / (27.0 + 5.0 * math.sqrt(27.0)), rel=1e-12
        )

    def test_ratio_monotone_in_detuning(self):
        values = [
            detuning_ratio(ModelParams(m=2, delta_m=d))
            for d in np.linspace(0.0, 10.0, 41)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_statistical_factor(self):
        params = ModelParams(m=2)
        assert statistical_factor(params, 4.0 * math.pi) == pytest.approx(1.0)
        far = statistical_factor(
            ModelParams(m=2, delta_m=10.0), 4.0 * math.pi
        )
        assert far == pytest.approx(2.0 / (27.0 + 5.0 * math.sqrt(27.0)), rel=1e-12)
        with pytest.raises(ValueError, match="defined for n = n' = 0 only"):
            statistical_factor(ModelParams(m=2, n=1), math.pi)

    def test_entropy_closed_form_vs_partial_trace(self):
        for m, delta in [(1, 0.0), (1, 2.0), (2, 3.3), (3, -1.2)]:
            params = ModelParams(m=m, delta_m=delta)
            state = dressed_state_vector(analytic_eigensystem(params)[0])
            rho = partial_trace(DensityMatrix.from_state(state))
            assert entropy_vs_detuning(params) == pytest.approx(
                linear_entropy(rho), abs=1e-12
            )
        assert entropy_vs_detuning(ModelParams(m=1)) == pytest.approx(0.5)
        assert entropy_vs_detuning(ModelParams(m=1, delta_m=2.0)) == (
            pytest.approx(0.25)
        )


class TestTwoAnyon:
    def test_eigenstate_solves_hamiltonian(self):
        for m in (1, 2, 3):
            pair = TwoAnyonParams(m=m)
            h = build_two_anyon_hamiltonian(pair)
            state = two_anyon_eigenstate(pair)
            v = state.amplitudes
            energy = math.factorial(m)
            assert np.abs(h.matrix @ v - energy * v).max() < 1e-12
            assert state.norm == pytest.approx(1.0, abs=1e-14)

    def test_pair_basis_shape(self):
        basis = two_anyon_basis(TwoAnyonParams(m=2))
        assert basis.mode_count == 4
        assert basis.sector_totals == ((0, 0), (2, 2))
        assert basis.dim == 2 * (1 + 9)

    def test_reduced_qubit_is_balanced(self):
        pair = TwoAnyonParams(m=2)
        state = two_anyon_eigenstate(pair)
        red = partial_trace(DensityMatrix.from_state(state))
        assert np.abs(red.matrix - np.eye(2) / 2.0).max() < 1e-14

    def test_phase_is_twice_the_single_one(self):
        for m in (1, 2, 4):
            for omega in (math.pi, 2.0 * math.pi):
                single = analytic_berry_phase(ModelParams(m=m), omega)
                assert two_anyon_analytic_phase(m, omega) == pytest.approx(
                    2.0 * single
                )
