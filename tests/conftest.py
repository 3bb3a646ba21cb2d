import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from anyonjc import berry, fock, paths

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def every_basis_counts_its_states(monkeypatch):
    """BasisSpec.dim counts states from the sectors without enumerating
    them; every basis a test builds must enumerate exactly that many."""
    built, post_init = set(), fock.BasisSpec.__post_init__

    def recording_post_init(basis):
        post_init(basis)
        built.add(basis)

    monkeypatch.setattr(fock.BasisSpec, "__post_init__", recording_post_init)
    yield
    wrong = {b: (len(b.states), b.dim) for b in built if len(b.states) != b.dim}
    assert not wrong, f"len(states) != dim: {wrong}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def rk4_evolve(h0, frame, schedule, psi, n_steps):
    """Classical RK4 oracle on the lab-frame H(t) = W h0 W^dag, with
    W = paths.lift at the drive point; yields (t, phi(t), W(t), psi(t))
    after every step."""
    dt = schedule.total_time / n_steps
    # the drive at every half step, evaluated in one call
    thetas, phis = schedule.drive_point(0.5 * dt * np.arange(2 * n_steps + 1))[:2]

    def h_at(j):  # at t = j dt / 2
        w = paths.lift(frame, thetas[j], phis[j])
        return w, w @ h0 @ w.conj().T

    _, h_now = h_at(0)
    for k in range(n_steps):
        _, h_mid = h_at(2 * k + 1)
        w, h_end = h_at(2 * k + 2)
        k1 = -1j * (h_now @ psi)
        k2 = -1j * (h_mid @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h_mid @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h_end @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h_now = h_end
        yield (k + 1) * dt, phis[2 * k + 2], w, psi


# Largest |E| dt of the oracle's equal steps: 16 times finer than the
# lab-frame Magnus rule (0.17 rad) the oracle was first written against.
ORACLE_STEP_PHASE = 0.17 / 16.0


def rk4_comoving(h0, frame, schedules, xi):
    """rk4_evolve behind the seam of berry.comoving_evolve: takes the
    co-moving states xi (P, d) = e^{i phi K} W^dag psi of P points, runs
    one oracle per point in lockstep and yields their states (k, P, d), in
    batches of 256 steps, on its own step count (|E| dt <= ORACLE_STEP_PHASE,
    at least one step per path segment), whatever the co-moving step rule
    says."""
    charge = berry.drive_charge(frame)
    scale = float(np.abs(np.linalg.eigvalsh(h0)).max())
    runs = []
    for schedule, x in zip(schedules, xi):
        n_steps = max(
            math.ceil(schedule.total_time * scale / ORACLE_STEP_PHASE),
            schedule.path.segments,
        )
        theta, phi = schedule.drive_point(0.0)[:2]
        psi = berry.comoving_lift(frame, charge, theta, phi) @ x
        runs.append(rk4_evolve(h0, frame, schedule, psi, n_steps))
    times, states = [], []
    for steps in zip(*runs):
        times.append(steps[0][0])
        states.append(
            [np.exp(1j * phi * charge) * (w.conj().T @ psi) for _, phi, w, psi in steps]
        )
        if len(times) == 256:
            yield np.array(times), np.array(states)
            times, states = [], []
    if times:
        yield np.array(times), np.array(states)


@pytest.fixture
def rk4_reference(monkeypatch):
    """Context manager running both time routes on the RK4 oracle, so
    guards and step sums see a converged reference trajectory."""

    @contextlib.contextmanager
    def swap():
        with monkeypatch.context() as patch:
            patch.setattr(berry, "comoving_evolve", rk4_comoving)
            yield

    return swap


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Captured stdout of passing tests is swallowed; re-emit the
    # acceptance verdict lines so every run shows all eight.
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(module, "VERDICT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
