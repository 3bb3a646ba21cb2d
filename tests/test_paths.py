"""Sphere loops, solid angles and the drive-frame rotations.

The spherical-polygon area oracle is the Girard excess of hand-picked
triangles whose area is known exactly (one octant = pi/2), plus a dense
ring compared against the closed-form cap area.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from anyonjc.fock import SPIN_DOWN, SPIN_UP, BasisSpec, StateVector
from anyonjc.iontrap import ramsey_basis
from anyonjc.model import ModelParams, build_interaction_hamiltonian, default_basis
from anyonjc.paths import (
    CACHED_FRAMES,
    MAX_LIFTED,
    LoopPath,
    constant_latitude_loop,
    default_latitude_loop,
    latitude_solid_angle,
    lift,
    polygon_loop,
    polygon_solid_angle,
    schwinger_frame,
    schwinger_jx,
    sphere_point,
    theta_for_solid_angle,
)

TWO_PI = 2.0 * math.pi


class TestSolidAngles:
    def test_latitude_values(self):
        assert latitude_solid_angle(0.0) == 0.0
        assert latitude_solid_angle(math.pi / 2) == pytest.approx(TWO_PI)
        assert latitude_solid_angle(math.pi) == pytest.approx(2 * TWO_PI)
        magic = math.acos(-1.0 / 3.0)
        assert latitude_solid_angle(magic) == pytest.approx(8 * math.pi / 3)

    def test_inverse_round_trip(self):
        for omega in (0.1, math.pi, TWO_PI, 11.0):
            theta = theta_for_solid_angle(omega)
            assert latitude_solid_angle(theta) == pytest.approx(omega, abs=1e-12)

    def test_sphere_point(self):
        v = sphere_point(math.pi / 2, math.pi / 2)
        assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(sphere_point(0.0, 1.234), [0.0, 0.0, 1.0], atol=1e-15)


class TestLoops:
    def test_latitude_loop_shape(self):
        path = constant_latitude_loop(0.8, 16)
        assert path.n_steps == 16
        assert path.samples.shape == (17, 2)
        assert path.omega_solid == pytest.approx(latitude_solid_angle(0.8))
        assert np.allclose(path.samples[:, 0], 0.8)

    def test_multi_revolution(self):
        path = constant_latitude_loop(1.0, 32, revolutions=3)
        assert path.samples.shape == (3 * 32 + 1, 2)
        assert path.samples[-1, 1] == pytest.approx(3 * TWO_PI)

    def test_parity_default(self):
        assert default_latitude_loop(1, 0.7).revolutions == 2
        assert default_latitude_loop(2, 0.7).revolutions == 1
        assert default_latitude_loop(3, 0.7).revolutions == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^theta -0\.1 outside \[0, pi\]$"):
            constant_latitude_loop(-0.1, 64)
        with pytest.raises(ValueError, match=r"^theta 3\.24\d* outside \[0, pi\]$"):
            constant_latitude_loop(math.pi + 0.1, 64)
        with pytest.raises(ValueError, match="^need at least 8 steps per revolution$"):
            constant_latitude_loop(1.0, 4)  # too few steps to mean anything

    def test_rejects_non_finite_samples(self):
        # NaN fails every closure and edge comparison, so only an explicit
        # check stops it
        with pytest.raises(ValueError, match="^path samples must be finite$"):
            LoopPath([[math.nan, 0.0], [math.nan, 0.0]], 0.0)
        with pytest.raises(ValueError, match="^path samples must be finite$"):
            LoopPath([[1.0, 0.0], [1.0, math.inf]], 0.0)

    def test_polygon_rejects_a_nan_vertex(self):
        with pytest.raises(ValueError, match="^path samples must be finite$"):
            polygon_loop([[math.nan, 0.0], [1.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("n_steps,revolutions", [(10**8, 1), (1024, 10**6)])
    def test_more_samples_than_max_lifted_raise_before_allocating(
        self, monkeypatch, n_steps, revolutions
    ):
        def no_samples(*args, **kwargs):
            raise AssertionError("the samples were allocated")

        monkeypatch.setattr(np, "arange", no_samples)
        with pytest.raises(ValueError, match=f"above MAX_LIFTED = {MAX_LIFTED}"):
            constant_latitude_loop(1.0, n_steps, revolutions)

    def test_max_lifted_samples_build(self):
        assert len(constant_latitude_loop(1.0, MAX_LIFTED - 1).samples) == MAX_LIFTED


class TestPolygonArea:
    def test_octant_is_exact(self):
        # +x -> +y -> +z corners of the octant
        path = polygon_loop(
            [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0)]
        )
        assert polygon_solid_angle(path) == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_raw_array_with_a_non_finite_vertex_is_rejected(self, bad):
        # a raw (K, 2) array bypasses LoopPath's check: nan, or a math domain error
        with pytest.raises(ValueError, match="^path samples must be finite$"):
            polygon_solid_angle(np.array([[bad, 0.0], [1.0, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 3, 2)])
    def test_raw_array_of_another_shape_is_rejected(self, shape):
        # a 1-D array failed to unpack a float, a (3, 3) one had three values
        samples = np.linspace(0.1, 1.0, math.prod(shape)).reshape(shape)
        with pytest.raises(ValueError, match=r"^samples must be a \(K, 2\) array of \(theta, phi\)$"):
            polygon_solid_angle(samples)

    def test_orientation_complement(self):
        fwd = [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0)]
        area = polygon_solid_angle(polygon_loop(fwd))
        rev = polygon_solid_angle(polygon_loop(fwd[::-1]))
        assert rev == pytest.approx(4 * math.pi - area, abs=1e-12)

    def test_dense_ring_matches_cap_formula(self):
        theta = 1.1
        n = 8192
        ring = polygon_loop([(theta, TWO_PI * k / n) for k in range(n)])
        got = polygon_solid_angle(ring)
        assert abs(got - latitude_solid_angle(theta)) < 1e-6

    def test_coarse_ring_bias_is_second_order(self):
        # 360 vertices leave a visible inscription bias; document its size
        theta = 1.1
        ring = polygon_loop([(theta, TWO_PI * k / 360) for k in range(360)])
        bias = polygon_solid_angle(ring) - latitude_solid_angle(theta)
        assert 0 < abs(bias) < 2e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_per_triangle_loop(self, seed):
        # the fan in array form sums the same excesses in the same order,
        # so it must agree with one triangle at a time to the last bit
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 40)
        verts = np.column_stack([rng.uniform(0, math.pi, n), rng.uniform(0, TWO_PI, n)])
        pts = [sphere_point(t, p) for t, p in verts]
        total = 0.0
        for v1, v2 in zip(pts[1:-1], pts[2:]):
            v0 = pts[0]
            denom = 1.0 + v0 @ v1 + v1 @ v2 + v2 @ v0
            total += 2.0 * math.atan2(v0 @ np.cross(v1, v2), denom)
        assert polygon_solid_angle(verts) == total % (4 * math.pi)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="needs at least three"):
            polygon_solid_angle(polygon_loop([(1.0, 0.0), (1.0, 1.0)]))
        with pytest.raises(ValueError, match="repeated consecutive points"):
            polygon_solid_angle(
                polygon_loop([(1.0, 0.0), (1.0, 0.0), (0.5, 1.0), (1.2, 2.0)])
            )
        with pytest.raises(ValueError, match="antipodal points is ambiguous"):
            # consecutive antipodal points leave the arc undefined
            polygon_solid_angle(
                polygon_loop([(0.0, 0.0), (math.pi, 0.0), (1.0, 1.0)])
            )


def jz_oracle(basis):
    diag = []
    for label in basis.states:
        occ = label[1:]
        val = (occ[0] - occ[1]) / 2.0
        if len(occ) == 4:
            val += (occ[2] - occ[3]) / 2.0
        diag.append(val)
    return np.array(diag)


class TestFrame:
    def test_jz_is_half_occupation_difference(self):
        for basis in (BasisSpec(2, (0, 1, 2, 3)), BasisSpec(4, ((0, 0), (2, 2)))):
            frame = schwinger_frame(basis)
            assert np.allclose(frame.jz_diagonal, jz_oracle(basis))

    @pytest.mark.parametrize(
        "basis", [BasisSpec(2, (0, 1, 3)), BasisSpec(4, ((0, 0), (1, 2), (2, 2)))]
    )
    def test_levels_and_the_blocks_jy_keeps(self, basis):
        frame = schwinger_frame(basis)
        levels, sectors = frame.jz_levels
        assert np.array_equal(levels, 2 * jz_oracle(basis))
        # one id per (spin, pair totals), and J_y links no two ids
        keys = [(s, *map(sum, zip(occ[::2], occ[1::2]))) for s, *occ in basis.states]
        same_key = np.array([[a == b for b in keys] for a in keys])
        assert np.array_equal(sectors[:, None] == sectors, same_key)
        assert not np.abs(frame.j_y.matrix[~same_key]).any()

    @pytest.mark.parametrize(
        "basis", [BasisSpec(2, (0, 1, 2)), BasisSpec(4, ((0, 0), (1, 1)))]
    )
    def test_su2_commutators(self, basis):
        frame = schwinger_frame(basis)
        jy = frame.j_y.matrix
        jz = np.diag(frame.jz_diagonal.astype(complex))
        jx = schwinger_jx(frame).matrix
        assert np.abs(jz @ jx - jx @ jz - 1j * jy).max() < 1e-12
        assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() < 1e-12
        assert np.abs(jy @ jz - jz @ jy - 1j * jx).max() < 1e-12

    def test_pair_swap_at_pi(self):
        basis = BasisSpec(2, (1,))
        frame = schwinger_frame(basis)
        u = lift(frame, math.pi, 0.0)
        for spin in (SPIN_UP, SPIN_DOWN):
            src = StateVector.basis_state(basis, (spin, 1, 0))
            out = u @ src.amplitudes
            assert out[basis.index((spin, 0, 1))] == pytest.approx(1.0, abs=1e-14)

    def test_identity_at_origin(self):
        frame = schwinger_frame(BasisSpec(2, (0, 1)))
        u = lift(frame, 0.0, 0.0)
        assert np.abs(u - np.eye(frame.basis.dim)).max() < 1e-14


class TestFrameCache:
    """schwinger_frame builds one read-only frame per basis and process."""

    def test_equal_bases_share_one_frame_and_enumeration(self):
        one, other = default_basis(ModelParams(m=2)), ramsey_basis(2)
        assert one is not other and one == other
        assert schwinger_frame(one) is schwinger_frame(other)
        assert one.states is other.states
        assert one.index_map is other.index_map
        assert schwinger_frame(BasisSpec(4, ((1, 1), (0, 0)))) is schwinger_frame(
            BasisSpec(4, ((0, 0), (1, 1)))
        )

    def test_a_shared_frame_cannot_be_written(self):
        basis = BasisSpec(2, (0, 1, 2))
        frame = schwinger_frame(basis)
        arrays = [
            frame.j_y.matrix,
            frame.j_z.matrix,
            frame.jz_diagonal,
            *frame.jz_levels,
            *frame.jy_eigensystem,
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.j_y = frame.j_z
        with pytest.raises(TypeError):
            basis.index_map[(SPIN_UP, 9, 9)] = 0

    def test_a_shared_frame_and_its_basis_still_pickle(self):
        frame = schwinger_frame(BasisSpec(2, (0, 1, 2)))
        frame.jy_eigensystem, frame.basis.index_map
        copy = pickle.loads(pickle.dumps(frame))
        assert copy.basis == frame.basis
        assert copy.basis.index_map is frame.basis.index_map
        assert np.array_equal(copy.j_y.matrix, frame.j_y.matrix)

    def test_the_cache_is_bounded(self):
        assert schwinger_frame.cache_info().maxsize == CACHED_FRAMES < math.inf
        for total in range(CACHED_FRAMES + 1):
            schwinger_frame(BasisSpec(2, (total,)))
        assert schwinger_frame.cache_info().currsize == CACHED_FRAMES

    def test_an_invalid_basis_raises_on_every_call(self):
        qubit = BasisSpec(0, ())
        for _ in range(3):
            with pytest.raises(ValueError, match="two- or four-mode basis"):
                schwinger_frame(qubit)


class TestRotations:
    def test_unitarity_random_angles(self, rng):
        frame = schwinger_frame(BasisSpec(2, (0, 1, 2)))
        eye = np.eye(frame.basis.dim)
        for _ in range(25):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 20.0)
            mat = lift(frame, theta, phi)
            assert np.abs(mat @ mat.conj().T - eye).max() < 1e-11

    def test_periodic_lift_closes_on_odd_sectors(self):
        # sector total 1 carries half-integer weights, where the bare
        # product of exponentials picks up a global sign over one turn
        basis = BasisSpec(2, (0, 1))
        frame = schwinger_frame(basis)
        w0 = lift(frame, 0.9, 0.0)
        w1 = lift(frame, 0.9, TWO_PI)
        assert np.abs(w1 - w0).max() < 1e-12
        # the plain Euler product exp(-i phi J_z) exp(-i theta J_y) does not
        euler = np.exp(-1j * TWO_PI * frame.jz_diagonal)[:, None] * (
            frame.rotation_about_y(0.9)
        )
        assert np.abs(euler - w0).max() > 0.5

    @pytest.mark.parametrize(
        "theta,phi", [(0.0, 0.0), (1.3, 0.0), (0.7, 2.1), (2.9, -4.0)]
    )
    def test_lift_conjugates_ladder_operator(self, theta, phi):
        # the documented sign convention, against ladders built here by hand;
        # every sector below the top is present, so no lowering is dropped
        basis = BasisSpec(2, (0, 1, 2, 3))
        frame = schwinger_frame(basis)
        a, b = np.zeros((2, basis.dim, basis.dim))
        for col, (s, n_a, n_b) in enumerate(basis.states):
            if n_a:
                a[basis.index((s, n_a - 1, n_b)), col] = math.sqrt(n_a)
            if n_b:
                b[basis.index((s, n_a, n_b - 1)), col] = math.sqrt(n_b)
        w = lift(frame, theta, phi)
        want = math.cos(theta / 2) * a + np.exp(-1j * phi) * math.sin(theta / 2) * b
        assert np.abs(w @ a @ w.conj().T - want).max() < 1e-13

    def test_cache_matches_direct_build(self):
        # the shared frame keeps its eigensystem of J_y; after every theta
        # change the lift must still match one built on a fresh, unshared frame
        basis = BasisSpec(2, (0, 1, 2))
        frame = schwinger_frame(basis)
        steps = [(0.4, 0.0), (0.4, 2.2), (1.9, 2.2), (1.9, 9.0), (0.4, 1.0)]
        for theta, phi in steps:
            want = lift(schwinger_frame.__wrapped__(basis), theta, phi)
            assert np.abs(lift(frame, theta, phi) - want).max() < 1e-13

    def test_rotated_hamiltonian_isospectral(self):
        params = ModelParams(m=2, delta_m=0.8)
        basis = default_basis(params)
        frame = schwinger_frame(basis)
        h0 = build_interaction_hamiltonian(params)
        base = np.sort(np.linalg.eigvalsh(h0.matrix))
        for theta, phi in [(0.5, 1.0), (2.4, 4.4)]:
            w = lift(frame, theta, phi)
            h = w @ h0.matrix @ w.conj().T
            assert np.allclose(np.sort(np.linalg.eigvalsh(h)), base, atol=1e-11)
            assert np.abs(h - h.conj().T).max() < 1e-12
