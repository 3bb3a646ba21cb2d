"""Truncated-basis bookkeeping, hopping operators, traces.

Reduced density matrices are checked against a brute-force index-sum
oracle written straight from the definition, never against the
implementation's own grouping.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyonjc.config import TOL
from anyonjc.fock import (
    MAX_BASIS_DIM,
    SPIN_DOWN,
    SPIN_UP,
    BasisSpec,
    DensityMatrix,
    StateVector,
    hopping_operator,
    linear_entropy,
    partial_trace,
)


def random_density(basis, rng, rank=3):
    """Random mixed state: normalized sum of rank pure projectors."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for _ in range(rank):
        v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        v /= np.linalg.norm(v)
        mat += rng.random() * np.outer(v, v.conj())
    mat /= np.trace(mat).real
    return DensityMatrix(basis, mat)


class TestBasis:
    def test_sector_enumeration_and_order(self):
        basis = BasisSpec(2, (0, 2))
        assert basis.dim == 2 * (1 + 3)
        assert basis.states[:2] == ((SPIN_UP, 0, 0), (SPIN_DOWN, 0, 0))
        # inside sector 2: up block first, n_a descending
        assert basis.states[2:5] == (
            (SPIN_UP, 2, 0),
            (SPIN_UP, 1, 1),
            (SPIN_UP, 0, 2),
        )
        assert basis.index((SPIN_DOWN, 0, 2)) == basis.dim - 1

    def test_duplicate_sectors_collapse(self):
        assert BasisSpec(2, (1, 1, 0)).sector_totals == (0, 1)

    def test_four_mode_dim(self):
        basis = BasisSpec(4, ((0, 0), (2, 2)))
        # sector (2,2) holds 3*3 occupation patterns per spin
        assert basis.dim == 2 * (1 + 9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BasisSpec(3, (0,))
        with pytest.raises(ValueError):
            BasisSpec(2, (-1,))
        with pytest.raises(ValueError):
            BasisSpec(2, ())
        with pytest.raises(ValueError):
            BasisSpec(4, (1, 2))

    def test_dim_above_the_cap_raises_before_enumerating(self):
        # sectors (0, 498) hold 2 (1 + 499) = 1000 states, (0, 499) two more;
        # a sector of 10^12 quanta is counted, never enumerated
        assert BasisSpec(2, (0, 498)).dim == MAX_BASIS_DIM == 1000
        for totals in ((0, 499), (10**12,)):
            with pytest.raises(ValueError, match="above MAX_BASIS_DIM = 1000"):
                BasisSpec(2, totals)
        with pytest.raises(ValueError, match="a basis of 1060 states"):
            BasisSpec(4, ((0, 0), (22, 22)))

    def test_index_of_missing_label(self):
        basis = BasisSpec(2, (0, 1))
        with pytest.raises(KeyError):
            basis.index((SPIN_UP, 5, 0))

    def test_overlap_across_bases_raises(self):
        label = (SPIN_UP, 0, 0)
        one = StateVector.basis_state(BasisSpec(2, (0, 1)), label)
        two = StateVector.basis_state(BasisSpec(2, (0, 1, 2)), label)
        with pytest.raises(ValueError, match="^objects live on different bases$"):
            one.overlap(two)


class TestHoppingOperator:
    def test_complex_hop_out_of_the_basis(self):
        # a J_y-like hop a -> b, which stays in its sector, plus a
        # creation on a that leaves the sectors {0, 2}; dropped weight is
        # |value|^2, where value^2 of an imaginary element would be negative
        basis = BasisSpec(2, (0, 2))

        def hop(label):
            s, n_a, n_b = label
            out = [((s, n_a + 1, n_b), -0.5j * math.sqrt(n_a + 1))]
            if n_a:
                out.append(((s, n_a - 1, n_b + 1), 0.5j * math.sqrt(n_a * (n_b + 1))))
            return out

        op = hopping_operator(basis, hop)
        # 2 spins x (sector 0: n_a = 0; sector 2: n_a = 2, 1, 0)
        assert op.dropped_weight == pytest.approx(2 * 0.25 * (1 + 3 + 2 + 1))
        row, col = basis.index((SPIN_UP, 1, 1)), basis.index((SPIN_UP, 2, 0))
        assert op.matrix[row, col] == 0.5j * math.sqrt(2)
        assert np.count_nonzero(op.matrix) == 2 * 2

    def test_creation_out_of_the_sector_set(self):
        # a^dag on mode a: from sector 2 every creation leaves the basis, and
        # from sector 0 the target sector 1 is absent too
        basis = BasisSpec(2, (0, 2))
        adag = hopping_operator(
            basis, lambda label: [((label[0], label[1] + 1, label[2]), math.sqrt(label[1] + 1))]
        )
        assert adag.dropped_weight == pytest.approx(2 * (1.0 + (3.0 + 2.0 + 1.0)))
        assert not adag.matrix.any()


def qubit_by_hand(rho):
    """Index-sum oracle for the qubit's reduced state: sum the elements
    whose two labels share every mode occupation."""
    basis = rho.basis
    out = np.zeros((2, 2), dtype=complex)
    for i, li in enumerate(basis.states):
        for j, lj in enumerate(basis.states):
            if li[1:] == lj[1:]:
                out[li[0], lj[0]] += rho.matrix[i, j]
    return out


class TestPartialTrace:
    def test_product_state_stays_pure(self):
        basis = BasisSpec(2, (0, 1, 2))
        boson = {(0, 0): 0.6, (1, 1): 0.8j}
        state = StateVector.from_components(
            basis, {(SPIN_UP,) + occ: amp for occ, amp in boson.items()}
        )
        rho = DensityMatrix.from_state(state)
        red = partial_trace(rho)
        assert linear_entropy(red) < 1e-14
        assert red.matrix[0, 0] == pytest.approx(1.0)

    def test_maximally_entangled_gives_half(self):
        basis = BasisSpec(2, (0, 1))
        state = StateVector.from_components(
            basis,
            {(SPIN_UP, 1, 0): 1 / math.sqrt(2), (SPIN_DOWN, 0, 1): 1 / math.sqrt(2)},
        )
        red = partial_trace(DensityMatrix.from_state(state))
        assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-14
        assert linear_entropy(red) == pytest.approx(0.5)

    def test_matches_index_sum_oracle(self, rng):
        basis = BasisSpec(2, (0, 1, 2))
        rho = random_density(basis, rng)
        got = partial_trace(rho)
        assert got.basis == BasisSpec(0, ())
        assert np.abs(got.matrix - qubit_by_hand(rho)).max() < 1e-13

    def test_four_mode_pair_cut(self, rng):
        # both mode pairs traced out of a four-mode state
        basis = BasisSpec(4, ((0, 0), (1, 1), (2, 1)))
        rho = random_density(basis, rng)
        red = partial_trace(rho)
        assert np.abs(red.matrix - qubit_by_hand(rho)).max() < 1e-13
        assert abs(np.trace(red.matrix) - 1.0) < 1e-12

    def test_random_outputs_are_states(self, rng):
        basis = BasisSpec(2, (0, 2))
        for _ in range(50):
            red = partial_trace(random_density(basis, rng))
            mat = red.matrix
            assert np.abs(mat - mat.conj().T).max() <= TOL.hermiticity
            assert abs(np.trace(mat) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(mat).min() >= TOL.psd_floor
            assert -1e-12 <= linear_entropy(red) <= 0.5 + 1e-12


@given(st.lists(st.floats(-1, 1), min_size=12, max_size=12))
def test_linear_entropy_bounds_any_state(vals):
    basis = BasisSpec(2, (0, 1))
    amp = np.array(vals[:6]) + 1j * np.array(vals[6:])
    if np.linalg.norm(amp) < 1e-3:
        amp = amp + 1.0
    state = StateVector(basis, amp / np.linalg.norm(amp))
    rho = DensityMatrix.from_state(state)
    assert linear_entropy(rho) == pytest.approx(0.0, abs=1e-12)
    red = partial_trace(rho)
    assert -1e-12 <= linear_entropy(red) <= 0.5 + 1e-12
