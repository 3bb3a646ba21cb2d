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
basis label to another (the exchange couplings, the ion-trap sideband and
the carrier's spin flip, the Schwinger J_y) is built by
:func:`hopping_operator`, the one place the truncation policy lives: an
element that leaves the sector set is dropped, and its squared magnitude
is accumulated in ``dropped_weight`` so callers can see exactly how much
operator weight the truncation discarded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import SizeLimit

SPIN_UP = 0
SPIN_DOWN = 1
# Largest basis (qubit included) a run may build. Its dense matrices grow as
# the square: a phase run at 1,006 states peaks near 150 MB and takes 0.6 s.
MAX_BASIS_DIM = 1000
# Most basis enumerations kept (labels and index map, one per distinct
# mode_count and sector_totals), so equal bases share one; one at
# MAX_BASIS_DIM holds about 0.2 MB.
CACHED_ENUMERATIONS = 32


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
    enumerated. Equal bases share one enumeration, states and a read-only
    index_map, per process.
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
        return _enumeration(self.mode_count, self.sector_totals)[0]

    @property
    def index_map(self) -> MappingProxyType:
        """Read-only map from each label to its position in states.

        Looked up, not stored on the basis, which a mappingproxy would
        keep from being pickled or copied."""
        return _enumeration(self.mode_count, self.sector_totals)[1]

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


@functools.lru_cache(maxsize=CACHED_ENUMERATIONS)
def _enumeration(mode_count: int, sector_totals: tuple):
    """(states, index_map) of a BasisSpec, built once for all equal bases."""
    if mode_count == 0:
        states = ((SPIN_UP,), (SPIN_DOWN,))
    else:
        labels = []
        for sector in sector_totals:
            if mode_count == 2:
                occs = _enumerate_pair(sector)
            else:
                nab, ncd = sector
                occs = [pa + pc for pa in _enumerate_pair(nab) for pc in _enumerate_pair(ncd)]
            labels += [(s,) + occ for s in (SPIN_UP, SPIN_DOWN) for occ in occs]
        states = tuple(labels)
    return states, MappingProxyType({label: k for k, label in enumerate(states)})


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
    that fell outside the basis during construction (0.0 for an operator
    built from a whole matrix).
    """

    basis: BasisSpec
    matrix: np.ndarray
    dropped_weight: float = 0.0

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        self.matrix = mat


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
