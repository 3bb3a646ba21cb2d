"""Truncated-basis bookkeeping, ladder operators, exponentials, traces.

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
    FockOperator,
    StateVector,
    build_ladder,
    build_pauli,
    hopping_operator,
    linear_entropy,
    matrix_exponential,
    partial_trace,
    truncated_basis,
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
        basis = truncated_basis(1)
        with pytest.raises(KeyError):
            basis.index((SPIN_UP, 5, 0))

    def test_sector_of(self):
        basis = BasisSpec(4, ((1, 2),))
        assert basis.sector_of((SPIN_UP, 1, 0, 0, 2)) == (1, 2)

    def test_overlap_across_bases_raises(self):
        label = (SPIN_UP, 0, 0)
        one = StateVector.basis_state(truncated_basis(1), label)
        two = StateVector.basis_state(truncated_basis(2), label)
        with pytest.raises(ValueError, match="^objects live on different bases$"):
            one.overlap(two)


class TestLadder:
    def test_lowering_elements_are_sqrt_n(self):
        basis = truncated_basis(3)
        a = build_ladder(basis, "a")
        for col, label in enumerate(basis.states):
            s, na, nb = label
            if na == 0:
                assert not a.matrix[:, col].any()
                continue
            row = basis.index((s, na - 1, nb))
            assert a.matrix[row, col] == math.sqrt(na)
            assert np.count_nonzero(a.matrix[:, col]) == 1

    def test_creation_is_exact_adjoint(self):
        basis = truncated_basis(4)
        for mode in ("a", "b"):
            low = build_ladder(basis, mode)
            raise_ = build_ladder(basis, mode, create=True)
            assert np.array_equal(raise_.matrix, low.matrix.conj().T)

    def test_commutator_is_identity_on_interior(self):
        basis = truncated_basis(4)
        a = build_ladder(basis, "a")
        adag = build_ladder(basis, "a", create=True)
        comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
        interior = [
            k for k, lab in enumerate(basis.states) if basis.sector_of(lab) < 4
        ]
        sub = comm[np.ix_(interior, interior)]
        assert np.abs(sub - np.eye(len(interior))).max() < 1e-12

    def test_overflow_weight_and_strict(self):
        basis = BasisSpec(2, (0, 2))
        adag = build_ladder(basis, "a", create=True)
        # from sector 2 every creation leaves the basis; from sector 0 the
        # target sector 1 is absent too
        expected = 2 * (1.0 + (3.0 + 2.0 + 1.0))
        assert adag.dropped_weight == pytest.approx(expected)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match=r"mode 'c' not in basis modes \('a', 'b'\)"):
            build_ladder(truncated_basis(1), "c")


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


class TestPauli:
    def test_algebra(self):
        basis = truncated_basis(1)
        sz = build_pauli(basis, "z").matrix
        sx = build_pauli(basis, "x").matrix
        sy = build_pauli(basis, "y").matrix
        sp = build_pauli(basis, "plus").matrix
        sm = build_pauli(basis, "minus").matrix
        eye = np.eye(basis.dim)
        assert np.array_equal(sp, sm.conj().T)
        assert np.abs(sp @ sm + sm @ sp - eye).max() == 0.0
        assert np.abs(sp @ sm - sm @ sp - sz).max() == 0.0
        assert np.abs(sx - (sp + sm)).max() == 0.0
        assert np.abs(sy - (-1j * (sp - sm))).max() == 0.0
        assert np.abs(sx @ sy - sy @ sx - 2j * sz).max() < 1e-15

    def test_plus_moves_down_to_up(self):
        basis = truncated_basis(1)
        sp = build_pauli(basis, "plus")
        state = StateVector.basis_state(basis, (SPIN_DOWN, 1, 0))
        out = sp.matrix @ state.amplitudes
        assert out[basis.index((SPIN_UP, 1, 0))] == 1.0

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            build_pauli(truncated_basis(1), "w")


class TestExponential:
    def test_zero_gives_identity(self):
        basis = truncated_basis(2)
        zero = FockOperator(basis, np.zeros((basis.dim, basis.dim)))
        assert np.array_equal(matrix_exponential(zero).matrix, np.eye(basis.dim))

    def test_sigma_z_closed_form(self):
        basis = BasisSpec(0, ())
        sz = build_pauli(basis, "z")
        t = 0.8372
        got = matrix_exponential(sz, scale=-1j * t).matrix
        want = np.diag([np.exp(-1j * t), np.exp(1j * t)])
        assert np.abs(got - want).max() < 1e-14

    def test_sigma_y_rotation_closed_form(self):
        basis = BasisSpec(0, ())
        sy = build_pauli(basis, "y")
        theta = 1.1
        got = matrix_exponential(sy, scale=-1j * theta / 2).matrix
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        want = np.array([[c, -s], [s, c]])
        assert np.abs(got - want).max() < 1e-14

    def test_unitarity_random_hermitian(self, rng):
        basis = truncated_basis(2)
        for _ in range(20):
            h = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(
                size=(basis.dim,) * 2
            )
            h = h + h.conj().T
            u = matrix_exponential(FockOperator(basis, h), scale=-1j).matrix
            assert np.abs(u @ u.conj().T - np.eye(basis.dim)).max() < 1e-11

    def test_non_hermitian_operator_raises(self, rng):
        basis = truncated_basis(1)
        m = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(
            size=(basis.dim,) * 2
        )
        m = np.triu(m)  # not normal, so no eigenbasis exponentiates it
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_exponential(FockOperator(basis, m))

    def test_norm_cap(self):
        basis = BasisSpec(0, ())
        sz = build_pauli(basis, "z")
        with pytest.raises(ValueError, match="exceeds the supported cap 50.0"):
            matrix_exponential(sz, scale=51.0)


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
        basis = truncated_basis(2)
        boson = {(0, 0): 0.6, (1, 1): 0.8j}
        state = StateVector.from_components(
            basis, {(SPIN_UP,) + occ: amp for occ, amp in boson.items()}
        )
        rho = DensityMatrix.from_state(state)
        red = partial_trace(rho)
        assert linear_entropy(red) < 1e-14
        assert red.matrix[0, 0] == pytest.approx(1.0)

    def test_maximally_entangled_gives_half(self):
        basis = truncated_basis(1)
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
    basis = truncated_basis(1)
    amp = np.array(vals[:6]) + 1j * np.array(vals[6:])
    if np.linalg.norm(amp) < 1e-3:
        amp = amp + 1.0
    state = StateVector(basis, amp / np.linalg.norm(amp))
    rho = DensityMatrix.from_state(state)
    assert linear_entropy(rho) == pytest.approx(0.0, abs=1e-12)
    red = partial_trace(rho)
    assert -1e-12 <= linear_entropy(red) <= 0.5 + 1e-12
