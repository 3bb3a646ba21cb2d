"""Acceptance gate: eight end-to-end criteria, one test and one printed
verdict line each.

Criterion 3 contains a bound (alpha at detuning 10 for the two-quantum
case below 0.02) that the closed form contradicts: the value is
2/(27 + 5 sqrt(27)) = 0.03775, and the independent holonomy route lands on
the same number, so the bound appears to belong to the one-quantum curve
(which gives 0.0194). The test states the bound as written and is
expected to fail on that sub-check; see the verdict line it prints.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from anyonjc.berry import holonomy_phase
from anyonjc.cli import main as cli_main
from anyonjc.errors import TruncationWarning
from anyonjc.fock import (
    SPIN_DOWN,
    SPIN_UP,
    DensityMatrix,
    linear_entropy,
    partial_trace,
)
from anyonjc.iontrap import (
    TrapParams,
    g_for_unit_coupling,
    lamb_dicke_lambda,
    pulse_beta,
    ramsey_basis,
    ramsey_sweep,
    sideband_hamiltonian,
)
from anyonjc.model import (
    ModelParams,
    TwoAnyonParams,
    analytic_berry_phase,
    analytic_eigensystem,
    default_basis,
    dressed_state_vector,
    entropy_vs_detuning,
    statistical_factor,
    two_anyon_basis,
    two_anyon_eigenstate,
)
from anyonjc.paths import (
    constant_latitude_loop,
    default_latitude_loop,
    schwinger_frame,
    theta_for_solid_angle,
)

TWO_PI = 2.0 * math.pi


VERDICT_LINES: list[str] = []


def verdict(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'}  {detail}"
    VERDICT_LINES.append(line)
    print(line)


def plus_state_and_frame(params):
    frame = schwinger_frame(default_basis(params))
    state = dressed_state_vector(analytic_eigensystem(params)[0])
    return state, frame


def test_criterion_1_resonant_fractional_phase():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3):
        params = ModelParams(m=m)
        state, frame = plus_state_and_frame(params)
        for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
            path = default_latitude_loop(m, theta, 4096)
            report = holonomy_phase(state, frame, path)
            want = (m / 4.0) * TWO_PI * (1.0 - math.cos(theta))
            worst = max(worst, abs(report.gamma_per_revolution - want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    verdict(
        1,
        ok,
        f"worst |holonomy - (m/4) Omega| = {worst:.3e} rad over 12 loops "
        f"(bound 1e-6), {elapsed:.1f} s (budget 60 s)",
    )
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_2_general_doublet_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    worst_case = None
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(0, 3))
        n_prime = int(rng.integers(0, 3))
        delta = float(rng.uniform(-10.0, 10.0))
        theta = float(rng.uniform(0.02, math.pi - 0.02))
        branch = "+" if rng.random() < 0.5 else "-"
        params = ModelParams(m=m, n=n, n_prime=n_prime, delta_m=delta)
        frame = schwinger_frame(default_basis(params))
        which = 0 if branch == "+" else 1
        state = dressed_state_vector(analytic_eigensystem(params)[which])
        path = default_latitude_loop(m, theta, 1024)
        report = holonomy_phase(state, frame, path)
        want = analytic_berry_phase(params, path.omega_solid, branch=branch)
        dev = abs(report.gamma_per_revolution - want)
        if dev > worst:
            worst, worst_case = dev, (m, n, n_prime, round(delta, 3), branch)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 300.0
    verdict(
        2,
        ok,
        f"worst deviation {worst:.3e} rad over 200 random doublets "
        f"(bound 1e-6, worst case {worst_case}), {elapsed:.1f} s (budget 300 s)",
    )
    assert worst < 1e-6
    assert elapsed < 300.0


def test_criterion_3_transmutation_endpoints():
    omega = 4.0 * math.pi
    params0 = ModelParams(m=2)
    alpha0 = statistical_factor(params0, omega)

    state, frame = plus_state_and_frame(params0)
    path = constant_latitude_loop(theta_for_solid_angle(omega), 4096)
    alpha0_holonomy = holonomy_phase(state, frame, path).gamma_total / TWO_PI

    grid = np.linspace(0.0, 10.0, 101)
    alphas = [
        statistical_factor(ModelParams(m=2, delta_m=float(d)), omega) for d in grid
    ]
    monotone = all(b < a for a, b in zip(alphas, alphas[1:]))
    alpha_far = alphas[-1]
    alpha_extreme = statistical_factor(ModelParams(m=2, delta_m=1e6), omega)

    resonant_ok = abs(alpha0 - 1.0) < 5e-16 and abs(alpha0_holonomy - 1.0) < 1e-6
    far_ok = alpha_far < 0.02
    ok = resonant_ok and monotone and far_ok and alpha_extreme < 1e-10
    far_note = (
        "met"
        if far_ok
        else "NOT met: closed form gives 2/(27 + 5 sqrt(27)) = 0.03775"
    )
    verdict(
        3,
        ok,
        f"alpha(0) = {alpha0:.16f} analytic / {alpha0_holonomy:.9f} holonomy, "
        f"monotone {monotone}, alpha(10) = {alpha_far:.6f} (bound 0.02 "
        f"{far_note}), alpha(1e6) = {alpha_extreme:.2e}",
    )
    assert abs(alpha0 - 1.0) < 5e-16
    assert abs(alpha0_holonomy - 1.0) < 1e-6
    assert monotone
    assert alpha_extreme < 1e-10
    assert alpha_far < 0.02  # stated bound; see module docstring


def test_criterion_4_detuning_curves(tmp_path):
    target = tmp_path / "fig1.csv"
    assert cli_main(["fig1", "--output", str(target)]) == 0
    rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
    worst_closed_form = 0.0
    ok = True
    for m in (1, 2, 3):
        sub = [r for r in rows if int(r[1]) == m]
        assert len(sub) == 201
        deltas = [float(r[0]) for r in sub]
        ratios = [float(r[2]) for r in sub]
        entropies = [float(r[3]) for r in sub]
        ok &= ratios[0] == pytest.approx(1.0, abs=1e-12)
        ok &= entropies[0] == pytest.approx(0.5, abs=1e-12)
        ok &= all(b < a for a, b in zip(ratios, ratios[1:]))
        ok &= all(b < a for a, b in zip(entropies, entropies[1:]))
        for delta, entropy in zip(deltas, entropies):
            params = ModelParams(m=m, delta_m=delta)
            closed = entropy_vs_detuning(params)
            rho = partial_trace(
                DensityMatrix.from_state(
                    dressed_state_vector(analytic_eigensystem(params)[0])
                )
            )
            worst_closed_form = max(
                worst_closed_form,
                abs(closed - entropy),
                abs(closed - linear_entropy(rho)),
            )
    ok &= worst_closed_form < 1e-12
    verdict(
        4,
        ok,
        "ratio and entropy curves: endpoints 1.0/0.5, strictly decreasing, "
        f"closed form vs partial trace within {worst_closed_form:.2e} "
        "(bound 1e-12) on 3 x 201 points",
    )
    assert ok


def test_criterion_5_two_anyon_doubling():
    worst = 0.0
    for m in (1, 2):
        pair = TwoAnyonParams(m=m)
        pair_frame = schwinger_frame(two_anyon_basis(pair))
        pair_state = two_anyon_eigenstate(pair)
        single = ModelParams(m=m)
        single_state, single_frame = plus_state_and_frame(single)
        for omega in (math.pi, TWO_PI, 2 * TWO_PI):
            path = default_latitude_loop(m, theta_for_solid_angle(omega), 2000)
            gamma_pair = holonomy_phase(
                pair_state, pair_frame, path
            ).gamma_per_revolution
            gamma_single = holonomy_phase(
                single_state, single_frame, path
            ).gamma_per_revolution
            worst = max(worst, abs(gamma_pair - 2.0 * gamma_single))
    ok = worst < 1e-6
    verdict(
        5,
        ok,
        f"worst |pair - 2 x single| = {worst:.3e} rad over m in (1, 2), "
        "Omega in (pi, 2pi, 4pi) (bound 1e-6)",
    )
    assert ok


def test_criterion_6_ramsey_end_to_end():
    t0 = time.perf_counter()
    trap = TrapParams(g=g_for_unit_coupling(0.1, 2), eta=0.1, m=2)
    omegas = list(np.linspace(0.0, 4.0 * math.pi, 9))
    beta = pulse_beta(trap, "timed")

    def worst_deviation(total_time):
        rows = ramsey_sweep(trap, omegas, total_time)
        devs = []
        for row in rows:
            want = (1.0 - math.cos(0.5 * row["omega_solid"])) / 2.0
            devs.append(abs(row["p_down"] - want))
        return max(devs), max(r["leak"] for r in rows)

    dev_200, leak_200 = worst_deviation(200.0)
    dev_400, leak_400 = worst_deviation(400.0)
    elapsed = time.perf_counter() - t0
    ok = dev_200 < 1e-2 and dev_400 < dev_200 and elapsed < 600.0
    verdict(
        6,
        ok,
        f"worst |p_down - (1 - cos(Omega/2))/2| = {dev_200:.3e} at T = 200 "
        f"(bound 1e-2), {dev_400:.3e} at T = 400 (must shrink), "
        f"leaks {leak_200:.1e}/{leak_400:.1e}, pulse contrast sin(beta) = "
        f"{math.sin(beta):.6f}, {elapsed:.0f} s (budget 600 s)",
    )
    assert dev_200 < 1e-2
    assert dev_400 < dev_200
    assert elapsed < 600.0


def test_criterion_7_lamb_dicke_consistency():
    worst_rel = 0.0
    for eta in (0.02, 0.05, 0.1, 0.2):
        for m in (1, 2):
            trap = TrapParams(g=1.0, eta=eta, m=m)
            closed = abs(lamb_dicke_lambda(trap))
            basis = ramsey_basis(m)
            # the basis reaches n = m: one marginal-basis warning where
            # eta^2 (m + 1) > 0.1 (eta = 0.2, m = 2 only), none elsewhere
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                h = sideband_hamiltonian(trap, basis)
            marginal = eta * eta * (m + 1) > 0.1
            assert [w.category for w in caught] == [TruncationWarning] * marginal
            element = abs(
                h.matrix[basis.index((SPIN_DOWN, m, 0)), basis.index((SPIN_UP, 0, 0))]
            )
            vacuum_rel = abs(element / (closed * math.sqrt(math.factorial(m))) - 1.0)
            assert vacuum_rel < 5.0 * eta * eta
            worst_rel = max(worst_rel, vacuum_rel)
    ok = worst_rel < 5.0 * 0.02**2  # tightest of the bounds actually applies
    verdict(
        7,
        ok,
        f"vacuum matrix element vs closed-form coupling: worst relative error "
        f"{worst_rel:.2e} over eta in (0.02..0.2), m in (1, 2) "
        "(bounds 5 eta^2; the series reproduces the closed form exactly)",
    )
    assert ok


def test_criterion_8_selftest_suite():
    proc = subprocess.run(
        [sys.executable, "-m", "anyonjc", "selftest"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    tally = [
        line for line in proc.stdout.splitlines() if line.endswith("checks passed")
    ]
    ok = proc.returncode == 0
    verdict(
        8,
        ok,
        f"selftest exit code {proc.returncode} "
        f"({tally[0] if tally else 'no tally line'})",
    )
    assert ok, proc.stdout + proc.stderr
