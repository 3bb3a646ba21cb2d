import contextlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from anyonjc import berry, iontrap, paths

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def rk4_evolve(h0, frame, schedule, psi, n_steps):
    """Classical RK4 oracle with the signature and yields of
    berry.magnus4_evolve, for agreement tests of the Magnus stepper."""
    dt = schedule.total_time / n_steps

    def h_at(t):
        w = paths.lift(frame, *schedule.drive_point(t))
        return w, w @ h0 @ w.conj().T

    _, h_now = h_at(0.0)
    for k in range(n_steps):
        t = k * dt
        _, h_mid = h_at(t + 0.5 * dt)
        w, h_end = h_at(t + dt)
        k1 = -1j * (h_now @ psi)
        k2 = -1j * (h_mid @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h_mid @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h_end @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h_now = h_end
        yield t + dt, w, psi


@pytest.fixture
def rk4_reference(monkeypatch):
    """Context manager running both time routes on the RK4 oracle with
    steps 16 times finer than the Magnus rule, so guards, step sums and
    the energy trapezoid all see a converged reference trajectory."""

    @contextlib.contextmanager
    def swap():
        with monkeypatch.context() as patch:
            patch.setattr(berry, "STEP_PHASE", berry.STEP_PHASE / 16.0)
            patch.setattr(berry, "magnus4_evolve", rk4_evolve)
            patch.setattr(iontrap, "magnus4_evolve", rk4_evolve)
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
