"""m-quantum two-mode Jaynes-Cummings model and its dressed-state algebra.

In the frame rotating at m times the mode frequency the Hamiltonian of one
doublet is

    H = (Delta_m / 2) sigma_z + lambda_m (sigma_+ a^m + sigma_- a^dag^m),

with Delta_m = omega_0 - m nu. It exchanges m quanta of mode a with one
qubit excitation, so it only couples |up, n, n'> to |down, n + m, n'> and
block-diagonalizes into 2x2 doublets with half-splitting

    Lambda = sqrt(Delta_m^2 / 4 + lambda_m^2 kappa^2),
    kappa  = sqrt((n + m)! / n!).

The analytic eigenvectors, geometric phases over a closed drive loop of
solid angle Omega, the far-detuning ratio that interpolates the phase
between its fractional and integer limits, and the qubit-field linear
entropy all come out of that block and are implemented here in closed
form; the numerical routes elsewhere in the package never reuse these
formulas, so the two can be compared as genuinely independent checks.

A pair of such anyon-like excitations is modeled with four modes and the
unit-strength exchange term sigma_+ a^m c^m + h.c., which binds the
sectors (0, 0) and (m, m).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import SizeLimit
from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    BasisSpec,
    FockOperator,
    StateVector,
    hopping_operator,
)
from .paths import check_solid_angle


def falling_product(n: int, m: int) -> int:
    """(n + m)! / n! as an exact integer. Raises SizeLimit when it is
    beyond the float range, at once for m > 170, where m! alone is."""
    value = math.inf if m > 170 else math.prod(range(n + 1, n + m + 1))
    if value > sys.float_info.max:
        raise SizeLimit(f"(n + m)! / n! at n = {n}, m = {m} is beyond the float range")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Model configuration for a single doublet.

    n and n_prime are the occupations of the upper bare state
    |up, n, n_prime>; the partner is |down, n + m, n_prime>.
    """

    m: int
    lambda_m: float = 1.0
    delta_m: float = 0.0
    n: int = 0
    n_prime: int = 0

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("m must be a positive integer")
        # every comparison is False for NaN, so each check rejects it
        if not self.lambda_m >= 0:
            raise ValueError("lambda_m must be non-negative")
        if not self.lambda_m < math.inf:
            raise ValueError("lambda_m must be finite")
        if not abs(self.delta_m) < math.inf:
            raise ValueError("delta_m must be finite")
        for name in ("n", "n_prime"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")

    @property
    def kappa(self) -> float:
        return math.sqrt(falling_product(self.n, self.m))

    @property
    def big_lambda(self) -> float:
        g = self.lambda_m * self.kappa
        return math.sqrt(0.25 * self.delta_m**2 + g * g)


def default_basis(params: ModelParams) -> BasisSpec:
    """Two-sector basis holding both halves of the configured doublet."""
    n_low = params.n + params.n_prime
    return BasisSpec(2, (n_low, n_low + params.m))


def exchange_hamiltonian(basis: BasisSpec, m: int, strength, diagonal) -> FockOperator:
    """diagonal(label) + sigma_- (a^dag)^m s(n_a) + h.c. on a two-mode
    basis, where s = strength links |up, n_a> to |down, n_a + m>. Built
    element by element rather than by ladder composition, so intermediate
    sectors need not be present."""

    def hop(label):
        n_a, out = label[1], [(label, diagonal(label))]
        if label[0] == SPIN_UP:
            out.append(((SPIN_DOWN, n_a + m) + label[2:], strength(n_a)))
        elif n_a >= m:
            out.append(((SPIN_UP, n_a - m) + label[2:], strength(n_a - m)))
        return out

    return hopping_operator(basis, hop)


def build_interaction_hamiltonian(params: ModelParams) -> FockOperator:
    """(Delta/2) sigma_z + lambda (sigma_+ a^m + sigma_- a^dag^m) on the
    default basis. Real symmetric by construction."""
    m, lam, half_delta = params.m, params.lambda_m, 0.5 * params.delta_m
    return exchange_hamiltonian(
        default_basis(params),
        m,
        lambda n: lam * math.sqrt(falling_product(n, m)),
        lambda label: half_delta if label[0] == SPIN_UP else -half_delta,
    )


@dataclass(frozen=True)
class DressedState:
    """One eigenvector of a doublet block, in closed form.

    branch '+' is the upper level (energy +big_lambda in the interaction
    frame), '-' the lower. Coefficients refer to the ordered pair
    (|up, n, n'>, |down, n + m, n'>).
    """

    params: ModelParams
    branch: str
    c_up: float
    c_down: float

    @property
    def big_lambda(self) -> float:
        return self.params.big_lambda

    @property
    def energy(self) -> float:
        return self.big_lambda if self.branch == "+" else -self.big_lambda


def analytic_eigensystem(params: ModelParams) -> tuple[DressedState, DressedState]:
    """Closed-form (plus, minus) eigenpair of the configured doublet.

    The minus branch is the exact orthogonal complement (-c_down, +c_up)
    of the plus branch, not an independent formula, so orthogonality holds
    identically for every detuning.
    """
    if params.lambda_m == 0.0:
        raise ValueError("lambda_m = 0 leaves the doublet uncoupled")
    lam = params.big_lambda
    # Compute the larger weight from its own square root and the smaller
    # one from c_up c_down = g / (2 Lambda); the naive pair of formulas
    # cancels catastrophically (down to division by zero) at large
    # detuning of the unfavourable sign.
    g = params.lambda_m * params.kappa
    if params.delta_m >= 0.0:
        c_up = math.sqrt((lam + 0.5 * params.delta_m) / (2.0 * lam))
        c_down = g / (2.0 * lam * c_up)
    else:
        c_down = math.sqrt((lam - 0.5 * params.delta_m) / (2.0 * lam))
        c_up = g / (2.0 * lam * c_down)
    plus = DressedState(params, "+", c_up, c_down)
    minus = DressedState(params, "-", -c_down, c_up)
    return plus, minus


def dressed_state_vector(
    dressed: DressedState, basis: BasisSpec | None = None
) -> StateVector:
    p = dressed.params
    if basis is None:
        basis = default_basis(p)
    return StateVector.from_components(
        basis,
        {
            (SPIN_UP, p.n, p.n_prime): dressed.c_up,
            (SPIN_DOWN, p.n + p.m, p.n_prime): dressed.c_down,
        },
    )


def analytic_berry_phase(
    params: ModelParams, omega_solid: float, branch: str = "+"
) -> float:
    """Geometric phase of one dressed branch for a loop of solid angle Omega.

    Equals Omega times the mode-imbalance expectation of the branch:
    Omega * ((n - n') / 2 + (m / 2) w_down) with w_down the weight on the
    m-quanta-shifted component. For the plus branch this is the fractional
    phase (m / 4) Omega at resonance with n = n' = 0. branch is '+' or '-'.
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', not {branch!r}")
    check_solid_angle(omega_solid)
    plus, minus = analytic_eigensystem(params)
    state = plus if branch == "+" else minus
    w_down = state.c_down * state.c_down
    jz = 0.5 * (params.n - params.n_prime) + 0.5 * params.m * w_down
    return omega_solid * jz


def detuning_ratio(params: ModelParams) -> float:
    """Phase suppression factor r(Delta) = gamma(Delta) / gamma(0) for the
    coupling part of the geometric phase; 1 at resonance, -> 0 far detuned."""
    plus, _ = analytic_eigensystem(params)
    return 2.0 * plus.c_down * plus.c_down


def statistical_factor(params: ModelParams, omega_solid: float) -> float:
    """Effective exchange-statistics parameter alpha for the (0, 0) doublet.

    alpha = (m / 4) (Omega / 2 pi) r(Delta); equal to m/4 for one full
    revolution at theta = pi/2 on resonance. Only the empty doublet has an
    anyon reading, so other occupations are rejected.
    """
    if params.n != 0 or params.n_prime != 0:
        raise ValueError("statistics factor is defined for n = n' = 0 only")
    check_solid_angle(omega_solid)
    return 0.25 * params.m * (omega_solid / (2.0 * math.pi)) * detuning_ratio(params)


def entropy_vs_detuning(params: ModelParams) -> float:
    """Closed-form linear entropy of the qubit in a dressed state:
    2 (c_up c_down)^2. Maximal (1/2) at resonance, -> 0 far detuned."""
    plus, _ = analytic_eigensystem(params)
    w = plus.c_up * plus.c_down
    return 2.0 * w * w


# --- two exchange-coupled excitations (four modes) ---


@dataclass(frozen=True)
class TwoAnyonParams:
    """A pair of m-quantum excitations, exchange coupled at unit strength."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("m must be a positive integer")


def two_anyon_basis(params: TwoAnyonParams) -> BasisSpec:
    return BasisSpec(4, ((0, 0), (params.m, params.m)))


def build_two_anyon_hamiltonian(params: TwoAnyonParams) -> FockOperator:
    """sigma_+ a^m c^m + h.c. on the two-anyon basis."""
    m = params.m

    def hop(label):
        spin, n_a, n_b, n_c, n_d = label
        if spin == SPIN_UP:
            weight = falling_product(n_a, m) * falling_product(n_c, m)
            return [((SPIN_DOWN, n_a + m, n_b, n_c + m, n_d), math.sqrt(weight))]
        if n_a < m or n_c < m:
            return []
        weight = falling_product(n_a - m, m) * falling_product(n_c - m, m)
        return [((SPIN_UP, n_a - m, n_b, n_c - m, n_d), math.sqrt(weight))]

    return hopping_operator(two_anyon_basis(params), hop)


def two_anyon_eigenstate(
    params: TwoAnyonParams, basis: BasisSpec | None = None
) -> StateVector:
    """(|up, vac> + |down, m, 0, m, 0>) / sqrt2, the upper resonant doublet
    eigenstate, with energy m!."""
    if basis is None:
        basis = two_anyon_basis(params)
    inv = 1.0 / math.sqrt(2.0)
    return StateVector.from_components(
        basis,
        {
            (SPIN_UP, 0, 0, 0, 0): inv,
            (SPIN_DOWN, params.m, 0, params.m, 0): inv,
        },
    )


def two_anyon_analytic_phase(m: int, omega_solid: float) -> float:
    """Geometric phase of the exchange-coupled pair: (m / 2) Omega, twice
    the single-excitation fractional phase."""
    check_solid_angle(omega_solid)
    return 0.5 * m * omega_solid
