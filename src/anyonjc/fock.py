"""Truncated Fock spaces for a qubit coupled to two or four boson modes.

The Hamiltonians in this package conserve the total boson number of each
mode pair up to m-quantum exchange with the qubit, so a basis is specified
by a set of pair totals ("sectors") rather than a plain occupation cutoff.
A two-mode basis with sectors {N1, N2} and the qubit holds every state
|s, n_a, n_b> with n_a + n_b in {N1, N2}; a four-mode basis takes sector
pairs (N_ab, N_cd).

Ordering convention, fixed once and relied on everywhere: sectors
ascending, qubit up before down inside a sector, then n_a descending
(and n_c descending for four modes). Spin labels are integers,
SPIN_UP = 0 and SPIN_DOWN = 1, so lexicographic order on the state label
is the basis order within a sector.

Operators carry their basis with them. Every operator that moves one
basis label to another (ladders, Pauli operators, the exchange couplings,
the ion-trap sideband and carrier, the Schwinger J_y) is built by
:func:`hopping_operator`, the one place the truncation policy lives: an
element that leaves the sector set is dropped, and its squared magnitude
is accumulated in ``dropped_weight`` so callers can see exactly how much
operator weight the truncation discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import SizeLimit

SPIN_UP = 0
SPIN_DOWN = 1
# Largest basis (qubit included) a run may build. Its dense matrices grow as
# the square: a phase run at 1,006 states peaks near 150 MB and takes 0.6 s.
MAX_BASIS_DIM = 1000


def _enumerate_pair(total: int) -> list[tuple[int, int]]:
    # n_a descending within a fixed pair total
    return [(total - k, k) for k in range(total + 1)]


@dataclass(frozen=True)
class BasisSpec:
    """Immutable description of a truncated basis.

    mode_count is 0 (bare qubit), 2 or 4. sector_totals holds ints for two
    modes and (N_ab, N_cd) pairs for four; it is normalized to a sorted
    tuple without duplicates. Every basis holds the qubit. A basis of more
    than MAX_BASIS_DIM states raises SizeLimit before any state is
    enumerated.
    """

    mode_count: int
    sector_totals: tuple

    def __post_init__(self):
        if self.mode_count not in (0, 2, 4):
            raise ValueError(f"mode_count must be 0, 2 or 4, got {self.mode_count}")
        totals = tuple(sorted(set(self.sector_totals)))
        if self.mode_count == 0:
            totals = ()
        elif self.mode_count == 2:
            if not totals or not all(isinstance(t, int) and t >= 0 for t in totals):
                raise ValueError("two-mode sector totals must be non-negative ints")
        else:
            if not totals or not all(
                isinstance(t, tuple)
                and len(t) == 2
                and all(isinstance(x, int) and x >= 0 for x in t)
                for t in totals
            ):
                raise ValueError("four-mode sectors must be (N_ab, N_cd) int pairs")
        object.__setattr__(self, "sector_totals", totals)
        if self.dim > MAX_BASIS_DIM:
            raise SizeLimit(
                f"a basis of {self.dim} states is above MAX_BASIS_DIM = {MAX_BASIS_DIM}"
            )

    @cached_property
    def states(self) -> tuple[tuple, ...]:
        """All basis labels in canonical order.

        Two-mode labels are (spin, n_a, n_b), four-mode labels are
        (spin, n_a, n_b, n_c, n_d). A bare qubit enumerates
        ((SPIN_UP,), (SPIN_DOWN,)).
        """
        if self.mode_count == 0:
            return ((SPIN_UP,), (SPIN_DOWN,))
        out = []
        for sector in self.sector_totals:
            occ_lists: list[tuple[int, ...]] = []
            if self.mode_count == 2:
                occ_lists = [pair for pair in _enumerate_pair(sector)]
            else:
                nab, ncd = sector
                for pa in _enumerate_pair(nab):
                    for pc in _enumerate_pair(ncd):
                        occ_lists.append(pa + pc)
            for s in (SPIN_UP, SPIN_DOWN):
                for occ in occ_lists:
                    out.append((s,) + occ)
        return tuple(out)

    @cached_property
    def index_map(self) -> dict[tuple, int]:
        return {label: k for k, label in enumerate(self.states)}

    @cached_property
    def dim(self) -> int:
        """State count from the sectors: N + 1 per two-mode sector,
        (N_ab + 1)(N_cd + 1) per four-mode one, doubled by the qubit."""
        if self.mode_count == 2:
            count = sum(n + 1 for n in self.sector_totals)
        elif self.mode_count == 4:
            count = sum((nab + 1) * (ncd + 1) for nab, ncd in self.sector_totals)
        else:
            count = 1
        return 2 * count

    @property
    def mode_ids(self) -> tuple[str, ...]:
        return ("a", "b", "c", "d")[: self.mode_count]

    def index(self, label: tuple) -> int:
        try:
            return self.index_map[label]
        except KeyError:
            raise KeyError(f"state {label} not in basis") from None

    def sector_of(self, label: tuple):
        """Pair total (or totals pair) of a basis label."""
        occ = label[1:]
        if self.mode_count == 2:
            return occ[0] + occ[1]
        return (occ[0] + occ[1], occ[2] + occ[3])


def truncated_basis(n_max: int) -> BasisSpec:
    """Conventional two-mode cutoff basis: all sectors 0..n_max."""
    return BasisSpec(2, tuple(range(n_max + 1)))


def _require_same_basis(x, y):
    if x.basis != y.basis:
        raise ValueError("objects live on different bases")


@dataclass
class StateVector:
    basis: BasisSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, basis dim {self.basis.dim}"
            )
        self.amplitudes = amp

    @classmethod
    def basis_state(cls, basis: BasisSpec, label: tuple) -> "StateVector":
        amp = np.zeros(basis.dim, dtype=complex)
        amp[basis.index(label)] = 1.0
        return cls(basis, amp)

    @classmethod
    def from_components(cls, basis: BasisSpec, comps: dict) -> "StateVector":
        amp = np.zeros(basis.dim, dtype=complex)
        for label, value in comps.items():
            amp[basis.index(label)] = value
        return cls(basis, amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        _require_same_basis(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass
class FockOperator:
    """Dense operator over a :class:`BasisSpec`.

    ``dropped_weight`` is the summed squared magnitude of matrix elements
    that fell outside the basis during construction (0.0 for anything
    built by composition or exponentiation).
    """

    basis: BasisSpec
    matrix: np.ndarray
    dropped_weight: float = 0.0

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        self.matrix = mat

    def __add__(self, other: "FockOperator") -> "FockOperator":
        _require_same_basis(self, other)
        return FockOperator(
            self.basis,
            self.matrix + other.matrix,
            self.dropped_weight + other.dropped_weight,
        )

    def __mul__(self, scalar: complex) -> "FockOperator":
        return FockOperator(self.basis, self.matrix * scalar, self.dropped_weight)

    __rmul__ = __mul__


def hopping_operator(basis: BasisSpec, hop) -> FockOperator:
    """Operator with element value at (target, label) for every pair
    (target, value) in the list hop(label), summed over the basis labels.

    A target outside the basis drops its element and adds |value|^2 to
    ``dropped_weight``.
    """
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    dropped = 0.0
    index = basis.index_map
    for col, label in enumerate(basis.states):
        for target, value in hop(label):
            row = index.get(target)
            if row is None:
                dropped += (value * value.conjugate()).real
                continue
            mat[row, col] += value
    return FockOperator(basis, mat, dropped)


def build_ladder(basis: BasisSpec, mode: str, *, create: bool = False) -> FockOperator:
    """Single-mode ladder operator, lowering by default.

    Elements that leave the sector set are dropped (tracked in
    ``dropped_weight``). ``build_ladder(b, m, create=True)`` is the exact
    adjoint of ``build_ladder(b, m)`` restricted to the basis.
    """
    if mode not in basis.mode_ids:
        raise ValueError(f"mode {mode!r} not in basis modes {basis.mode_ids}")
    pos = basis.mode_ids.index(mode) + 1

    def hop(label):
        n = label[pos]
        if create:
            return [(label[:pos] + (n + 1,) + label[pos + 1 :], math.sqrt(n + 1))]
        return [(label[:pos] + (n - 1,) + label[pos + 1 :], math.sqrt(n))] if n else []

    return hopping_operator(basis, hop)


# value of the down -> up and the up -> down element of each spin flip
_SPIN_FLIPS = {
    "x": (1.0, 1.0),
    "y": (-1.0j, 1.0j),
    "plus": (1.0, 0.0),
    "minus": (0.0, 1.0),
}


def build_pauli(basis: BasisSpec, which: str) -> FockOperator:
    """Qubit operator ('z', 'x', 'y', 'plus' or 'minus') acting as identity
    on the boson modes. 'plus' maps down to up."""
    if which == "z":
        return hopping_operator(
            basis, lambda label: [(label, 1.0 if label[0] == SPIN_UP else -1.0)]
        )
    if which not in _SPIN_FLIPS:
        raise ValueError(f"unknown qubit operator {which!r}")
    raise_value, lower_value = _SPIN_FLIPS[which]

    def hop(label):
        if label[0] == SPIN_DOWN:
            return [((SPIN_UP,) + label[1:], raise_value)]
        return [((SPIN_DOWN,) + label[1:], lower_value)]

    return hopping_operator(basis, hop)


def matrix_exponential(op: FockOperator, scale: complex = 1.0) -> FockOperator:
    """exp(scale * op) of a Hermitian op, as a new operator on the same
    basis, through the eigendecomposition of op. A non-Hermitian op raises
    ValueError, and so does a scaled argument whose spectral norm, |scale|
    times the largest |eigenvalue|, exceeds TOL.expm_norm_cap.
    """
    if np.abs(op.matrix - op.matrix.conj().T).max() >= TOL.hermiticity:
        raise ValueError("matrix_exponential needs a Hermitian operator")
    w, v = np.linalg.eigh(op.matrix)
    if abs(scale) * np.abs(w).max() > TOL.expm_norm_cap:
        raise ValueError(f"||scale * op|| exceeds the supported cap {TOL.expm_norm_cap}")
    return FockOperator(op.basis, (v * np.exp(scale * w)) @ v.conj().T)


@dataclass
class DensityMatrix:
    basis: BasisSpec
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        self.matrix = mat

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        amp = state.amplitudes
        return cls(state.basis, np.outer(amp, amp.conj()))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def partial_trace(rho: DensityMatrix) -> DensityMatrix:
    """The qubit's 2x2 state: rho with the boson modes traced out.

    Every mode occupation appears once with the qubit up and once with it
    down, so the reduced state sums one 2x2 block per occupation (in basis
    order).
    """
    basis = rho.basis
    index = basis.index_map
    pairs = np.array(
        [
            (k, index[(SPIN_DOWN,) + label[1:]])
            for k, label in enumerate(basis.states)
            if label[0] == SPIN_UP
        ]
    )
    out = np.zeros((2, 2), dtype=complex)
    for block in rho.matrix[pairs[:, :, None], pairs[:, None, :]]:
        out += block
    return DensityMatrix(BasisSpec(0, ()), out)


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2). Zero iff pure, at most 1 - 1/dim."""
    return float(1.0 - rho.purity())
