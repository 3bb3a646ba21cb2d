"""Drive loops on the sphere, their solid angles, and mode-mixing rotations.

A drive configuration is a point (theta, phi) on the unit sphere. Loops are
stored as sampled paths with an explicit duplicate endpoint, either
constant-latitude circles (closed-form solid angle 2 pi (1 - cos theta) per
revolution) or spherical polygons with geodesic edges, whose oriented area
comes from a Girard-style triangle fan.

The two boson modes carry an angular-momentum algebra (Schwinger picture):

    J_z = (a^dag a - b^dag b) / 2,   J_y = i (a b^dag - a^dag b) / 2,

block-diagonal over sectors, where the pair total N acts as spin j = N / 2.
Rotating the drive point is implemented by exponentials of these
generators. Exponentials are taken in the spectral basis of the generator
(J_z is diagonal in the canonical ordering, J_y is diagonalized once per
frame and cached), so arbitrarily large angles stay exact to rounding and
the generic matrix-exponential norm cap does not apply here. The drive
rotation itself, with its sign convention, is lift(frame, theta, phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import SizeLimit
from .fock import BasisSpec, FockOperator, hopping_operator

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

MIN_STEPS = 8
# Most loop samples times basis states of one holonomy run, and most samples
# of one loop. The holonomy route lifts no state to the samples: phase --m 1
# --steps 100000 (1.2 million) peaks at 16 MB under tracemalloc.
MAX_LIFTED = 2_000_000


def sphere_point(theta: float, phi: float) -> np.ndarray:
    """Unit vector for polar angle theta, azimuth phi."""
    s = math.sin(theta)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(theta)])


def latitude_solid_angle(theta: float) -> float:
    return TWO_PI * (1.0 - math.cos(theta))


def check_solid_angle(omega_solid: float) -> None:
    """Raise ValueError unless omega_solid lies in [0, 4 pi]."""
    if not 0.0 <= omega_solid <= FOUR_PI + 1e-12:
        raise ValueError(f"solid angle {omega_solid} outside [0, 4*pi]")


def theta_for_solid_angle(omega_solid: float) -> float:
    """Latitude whose circle encloses the requested solid angle."""
    check_solid_angle(omega_solid)
    return math.acos(max(-1.0, 1.0 - omega_solid / TWO_PI))


@dataclass
class LoopPath:
    """Sampled closed drive loop.

    samples has shape (K, 2) with columns (theta, phi) and includes the
    duplicate closing point. omega_solid is the enclosed solid angle per
    revolution.
    """

    samples: np.ndarray
    omega_solid: float
    revolutions: int = 1

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise ValueError("samples must be a (K, 2) array of (theta, phi)")
        if len(self.samples) < 2:
            raise ValueError("a path needs at least two samples")
        if not np.isfinite(self.samples).all():
            raise ValueError("path samples must be finite")
        if self.revolutions < 1:
            raise ValueError("revolutions must be at least 1")
        first = sphere_point(*self.samples[0])
        last = sphere_point(*self.samples[-1])
        if np.linalg.norm(first - last) > TOL.loop_closure:
            raise ValueError("closed path endpoints do not coincide on the sphere")

    @property
    def segments(self) -> int:
        return len(self.samples) - 1

    @property
    def n_steps(self) -> int:
        """Segments per revolution."""
        return self.segments // self.revolutions


def constant_latitude_loop(
    theta: float, n_steps: int = 1024, revolutions: int = 1
) -> LoopPath:
    """Circle at fixed polar angle, n_steps samples per revolution.

    Raises SizeLimit, before it allocates, above MAX_LIFTED samples: no
    holonomy run of such a loop fits, and no time route could step it.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta {theta} outside [0, pi]")
    if n_steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps per revolution")
    if revolutions < 1:
        raise ValueError("revolutions must be at least 1")
    total = n_steps * revolutions
    if total + 1 > MAX_LIFTED:
        raise SizeLimit(f"a loop of {total + 1} samples is above MAX_LIFTED = {MAX_LIFTED}")
    phi = TWO_PI * np.arange(total + 1) / n_steps
    samples = np.column_stack([np.full(total + 1, theta), phi])
    return LoopPath(samples, omega_solid=latitude_solid_angle(theta), revolutions=revolutions)


def default_latitude_loop(m: int, theta: float, n_steps: int = 1024) -> LoopPath:
    """Latitude loop with the default traversal count: odd m is driven
    around twice (the doubled loop is reported per revolution downstream)."""
    return constant_latitude_loop(theta, n_steps, revolutions=2 if m % 2 else 1)


def polygon_loop(vertices) -> LoopPath:
    """Closed spherical polygon through the given (theta, phi) vertices."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("a polygon needs at least three (theta, phi) vertices")
    first = sphere_point(*verts[0])
    last = sphere_point(*verts[-1])
    if np.linalg.norm(first - last) > TOL.loop_closure:
        verts = np.vstack([verts, verts[0]])
    omega = polygon_solid_angle(verts)
    return LoopPath(verts, omega_solid=omega)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of 3-vectors, each rounded as a @ b of one row
    pair (a stacked matmul runs the same kernel; a matrix-vector one does not)."""
    a, b = np.broadcast_arrays(a, b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def polygon_solid_angle(path) -> float:
    """Oriented solid angle of a closed spherical polygon, in [0, 4 pi).

    Accepts a LoopPath or a (K, 2) sample array (duplicate endpoint
    optional). The polygon is fanned into triangles from its first vertex
    and each triangle contributes its oriented spherical excess

        E = 2 atan2(v0 . (v1 x v2), 1 + v0.v1 + v1.v2 + v2.v0).

    The signed total is reduced mod 4 pi, so traversing a loop backwards
    reports 4 pi minus the forward area (the complementary cap). Raises
    ValueError for a non-finite sample, as LoopPath does.
    """
    samples = path.samples if isinstance(path, LoopPath) else np.asarray(path, float)
    if not np.isfinite(samples).all():
        raise ValueError("path samples must be finite")
    pts = np.array([sphere_point(t, p) for t, p in samples.tolist()])
    if len(pts) > 1 and np.linalg.norm(pts[0] - pts[-1]) <= TOL.loop_closure:
        pts = pts[:-1]
    if len(pts) < 3:
        raise ValueError("fewer than three distinct points")
    chords = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
    if chords.min() <= TOL.degenerate_edge:
        raise ValueError("repeated consecutive points on the sphere")
    v0, v1, v2 = pts[0], pts[1:-1], pts[2:]
    denom = 1.0 + _dots(v0, v1) + _dots(v1, v2) + _dots(v2, v0)
    numer = _dots(v0, np.cross(v1, v2))
    if ((np.abs(denom) < 1e-14) & (np.abs(numer) < 1e-14)).any():
        raise ValueError("triangle with antipodal points is ambiguous")
    total = 0.0  # summed in fan order, as a float, triangle by triangle
    for y, x in zip(numer.tolist(), denom.tolist()):
        total += 2.0 * math.atan2(y, x)
    return total % FOUR_PI


@dataclass
class SchwingerFrame:
    """Schwinger angular momentum over a basis, with cached spectral data.

    For four modes the generators are the pair sums J = J^(ab) + J^(cd),
    so the same rotation machinery serves the exchange-coupled pair.
    """

    basis: BasisSpec
    j_y: FockOperator
    j_z: FockOperator

    @cached_property
    def jz_diagonal(self) -> np.ndarray:
        mat = self.j_z.matrix
        if np.abs(mat - np.diag(np.diagonal(mat))).max() > 0:
            raise ValueError("J_z is not diagonal in this basis ordering")
        return np.diagonal(mat).real.copy()

    @cached_property
    def jy_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(self.j_y.matrix)
        return w, v

    def rotation_about_y(self, theta: float) -> np.ndarray:
        """exp(-i theta J_y), from the cached eigensystem of J_y."""
        w, v = self.jy_eigensystem
        return (v * np.exp(-1j * theta * w)) @ v.conj().T


def schwinger_frame(basis: BasisSpec) -> SchwingerFrame:
    """Build J_y and J_z for a two- or four-mode basis.

    Elements are written state by state inside each sector, never by
    composing truncated single-mode ladders, so the generators are exactly
    sector preserving with no overflow bookkeeping.
    """
    if basis.mode_count not in (2, 4):
        raise ValueError("Schwinger frame needs a two- or four-mode basis")
    starts = range(1, 1 + basis.mode_count, 2)

    def jy_hop(label):
        # i/2 (a b^dag - a^dag b) for each mode pair
        out = []
        for i in starts:
            n_a, n_b = label[i], label[i + 1]
            if n_a >= 1:
                value = 0.5j * math.sqrt(n_a * (n_b + 1))
                out.append((label[:i] + (n_a - 1, n_b + 1) + label[i + 2 :], value))
            if n_b >= 1:
                value = -0.5j * math.sqrt((n_a + 1) * n_b)
                out.append((label[:i] + (n_a + 1, n_b - 1) + label[i + 2 :], value))
        return out

    jz = np.zeros(basis.dim, dtype=float)
    for k, label in enumerate(basis.states):
        occ = label[1:]
        jz[k] = 0.5 * (occ[0] - occ[1])
        if basis.mode_count == 4:
            jz[k] += 0.5 * (occ[2] - occ[3])
    return SchwingerFrame(
        basis,
        hopping_operator(basis, jy_hop),
        FockOperator(basis, np.diag(jz).astype(complex)),
    )


def schwinger_jx(frame: SchwingerFrame) -> FockOperator:
    """J_x = -i [J_y, J_z] completes the algebra; built from the frame's
    own generators so commutator checks are not circular."""
    jy, jz = frame.j_y.matrix, frame.j_z.matrix
    return FockOperator(frame.basis, -1j * (jy @ jz - jz @ jy))


def lift(frame: SchwingerFrame, theta: float, phi: float) -> np.ndarray:
    """Drive rotation W = exp(-i phi J_z) exp(-i theta J_y) exp(+i phi J_z).

    This co-rotating form is the one lift of the drive in the package:
    holonomy transport, the adiabatic route and the Ramsey wait all use
    it. W is exactly 2 pi periodic in phi on every sector (the plain Euler
    product exp(-i phi J_z) exp(-i theta J_y) picks up the parity (-1)^N
    over one turn) and tilts the mode-mixing axis without winding the
    coupling phase.

    Sign convention: W a W^dag = cos(theta/2) a + e^{-i phi} sin(theta/2) b,
    so lift(frame, pi, 0) maps |1, 0> to +|0, 1>.
    """
    phase = np.exp(-1j * phi * frame.jz_diagonal)
    return phase[:, None] * frame.rotation_about_y(theta) * phase.conj()
