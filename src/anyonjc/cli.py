"""Command line front end.

Subcommands:
    phase      one doublet: closed-form, holonomy and optional adiabatic phase
    fig1       detuning sweep of the phase ratio and qubit-field entropy
    transmute  statistics parameter alpha against detuning
    two-anyon  exchange-coupled pair versus twice the single phase
    ramsey     trapped-ion interferometer simulation over a solid-angle grid
    selftest   run the built-in invariant suite

Angles accept plain radians or pi expressions ("pi/2", "2pi/3", "4pi").
Exit codes: 0 success, 2 cross-check failure (with --strict) or internal
inconsistency, 3 adiabaticity failure, 4 configuration error.
A --config file holds flat key=value lines matching long option names;
explicit command line flags win over file values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, berry, iontrap, selftest
from .config import TOL
from .errors import NonAdiabatic, NormDrift, SimulationError
from .fock import DensityMatrix, linear_entropy, partial_trace
from .model import (
    ModelParams,
    TwoAnyonParams,
    analytic_berry_phase,
    analytic_eigensystem,
    build_interaction_hamiltonian,
    build_two_anyon_hamiltonian,
    default_basis,
    detuning_ratio,
    dressed_state_vector,
    statistical_factor,
    two_anyon_analytic_phase,
    two_anyon_basis,
    two_anyon_eigenstate,
)
from .paths import (
    constant_latitude_loop,
    default_latitude_loop,
    schwinger_frame,
    theta_for_solid_angle,
)

_ANGLE_RE = re.compile(
    r"^\s*([+-])?\s*((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*\*?\s*(pi)?"
    r"\s*(?:/\s*([+-]?(?:\d+\.?\d*|\.\d+)))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Radians from '1.2', 'pi', '-pi/2', '4pi', '2pi/3', '3/4' strings."""
    m = _ANGLE_RE.match(str(text))
    if not m or (m.group(2) is None and m.group(3) is None):
        raise ValueError(f"cannot parse angle {text!r}")
    value = float(m.group(2)) if m.group(2) else 1.0
    if m.group(1) == "-":
        value = -value
    if m.group(3):
        value *= math.pi
    if m.group(4):
        denom = float(m.group(4))
        if denom == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        value /= denom
    return value


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract here
    reserves 2 for cross-check failures, so usage errors exit 4. Like every
    other error, a usage error writes one stderr line (--help shows usage)."""

    def error(self, message):
        self.exit(4, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def emit_rows(rows: list[dict], args, diagnostics: dict) -> None:
    """Write rows as CSV or JSON to --output (or stdout), deterministically.
    The CSV columns are the keys of the first row, in order."""
    if args.format == "json":
        config = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "output", "format") and not k.startswith("_")
        }
        provenance = {"anyonjc": __version__, "numpy": np.__version__}
        diagnostics = {**diagnostics, "provenance": provenance}
        text = json.dumps(
            {"config": config, "rows": rows, "diagnostics": diagnostics}, indent=2
        )
        text += "\n"
    else:
        columns = list(rows[0])
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _per_revolution(report: berry.PhaseReport) -> float:
    """Holonomy phase per revolution; a loop sampled too coarsely to count
    its winding is a simulation failure (exit 2), not a number."""
    if report.gamma_per_revolution is None:
        steps = f"{report.n_steps} steps per revolution"
        raise SimulationError(f"holonomy winding unresolved at {steps}; raise --steps")
    return report.gamma_per_revolution


def _m_values(args) -> list[int]:
    return [int(tok) for tok in args.m_list.split(",") if tok.strip()]


# --- subcommands ---


def cmd_phase(args) -> int:
    if args.omega is not None:
        theta = theta_for_solid_angle(args.omega)
    else:
        theta = args.theta if args.theta is not None else math.pi / 2.0
    params = ModelParams(
        m=args.m, delta_m=args.delta, n=args.n, n_prime=args.n_prime
    )
    plus, minus = analytic_eigensystem(params)  # cheap, and guards (n + m)!/n!
    if args.revolutions:
        path = constant_latitude_loop(theta, args.steps, revolutions=args.revolutions)
    else:
        path = default_latitude_loop(args.m, theta, args.steps)
    frame = schwinger_frame(default_basis(params))
    dressed = plus if args.branch == "+" else minus
    state = dressed_state_vector(dressed)

    gamma_analytic = analytic_berry_phase(params, path.omega_solid, branch=args.branch)
    report = berry.holonomy_phase(state, frame, path, refine=not args.no_refine)
    gamma_holonomy = _per_revolution(report)
    dev_holonomy = abs(gamma_holonomy - gamma_analytic)

    print(
        f"m = {params.m}, delta/lambda = {params.delta_m:g}, "
        f"doublet (n, n') = ({params.n}, {params.n_prime}), branch {args.branch}"
    )
    print(
        f"loop: latitude theta = {theta:.6g}, solid angle {path.omega_solid:.6g} "
        f"per revolution, {path.revolutions} revolution(s), {path.n_steps} steps"
    )
    print(f"gamma analytic (per rev)  : {gamma_analytic:+.12f}")
    print(
        f"gamma holonomy (per rev)  : {gamma_holonomy:+.12f}"
        f"   |diff| = {dev_holonomy:.2e}"
    )
    print(
        f"principal value {report.gamma:+.9f}, winding {report.winding}, "
        f"discretization estimate {report.diagnostics['discretization_estimate']}"
    )

    row = {
        "m": params.m,
        "delta_m": params.delta_m,
        "n": params.n,
        "n_prime": params.n_prime,
        "branch": args.branch,
        "theta": theta,
        "omega_solid": path.omega_solid,
        "revolutions": path.revolutions,
        "gamma_analytic": gamma_analytic,
        "gamma_holonomy": gamma_holonomy,
        "gamma_principal": report.gamma,
        "winding": report.winding,
    }
    diagnostics = dict(report.diagnostics)

    dev_adiabatic = None
    if args.adiabatic:
        h0 = build_interaction_hamiltonian(params)
        schedule = berry.DriveSchedule(path, args.total_time)
        if args.extrapolate:
            adiab = berry.extrapolated_adiabatic_phase(h0, frame, schedule, state)
        else:
            _, adiab = berry.adiabatic_evolution(h0, frame, schedule, state)
        dev_adiabatic = abs(adiab.gamma_per_revolution - gamma_holonomy)
        print(
            f"gamma adiabatic (per rev) : {adiab.gamma_per_revolution:+.12f}"
            f"   |diff vs holonomy| = {dev_adiabatic:.2e}"
            f"   leak = {adiab.diagnostics['max_nonadiabatic_leak']:.2e}"
        )
        row["gamma_adiabatic"] = adiab.gamma_per_revolution
        row["adiabatic_leak"] = adiab.diagnostics["max_nonadiabatic_leak"]
        diagnostics["adiabatic"] = adiab.diagnostics

    if params.n == 0 and params.n_prime == 0:
        alpha = statistical_factor(params, path.omega_solid)
        print(f"statistics parameter alpha: {alpha:.12g}")
        row["alpha"] = alpha

    if args.output:
        emit_rows([row], args, diagnostics)

    if args.strict:
        if dev_holonomy > TOL.holonomy_vs_analytic:
            print("strict: holonomy deviates from closed form", file=sys.stderr)
            return 2
        if dev_adiabatic is not None and dev_adiabatic > TOL.adiabatic_vs_holonomy:
            print("strict: adiabatic route deviates from holonomy", file=sys.stderr)
            return 2
    return 0


def cmd_fig1(args) -> int:
    deltas = np.linspace(0.0, args.delta_max, args.points)
    rows = []
    worst_cross = 0.0
    for m in _m_values(args):
        # one basis, frame and loop per m; its dressed states serve both columns
        basis = default_basis(ModelParams(m=m))
        if args.with_holonomy:
            frame = schwinger_frame(basis)
            path = default_latitude_loop(m, math.pi / 2.0, args.steps)
        points = [ModelParams(m=m, delta_m=float(delta)) for delta in deltas]
        states = [dressed_state_vector(analytic_eigensystem(p)[0], basis) for p in points]
        block = [
            {
                "delta_over_lambda": float(delta),
                "m": m,
                "ratio": detuning_ratio(params),
                "linear_entropy": linear_entropy(
                    partial_trace(DensityMatrix.from_state(state))
                ),
            }
            for delta, params, state in zip(deltas, points, states)
        ]
        if args.with_holonomy:
            scale = 0.25 * m * path.omega_solid
            for row, report in zip(block, berry.holonomy_phases(states, frame, path)):
                row["ratio_holonomy"] = _per_revolution(report) / scale
                worst_cross = max(worst_cross, abs(row["ratio_holonomy"] - row["ratio"]))
        rows += block
    emit_rows(rows, args, {"worst_holonomy_deviation": worst_cross or None})
    if args.strict and args.with_holonomy and worst_cross > 1e-6:
        print("strict: holonomy ratio deviates from closed form", file=sys.stderr)
        return 2
    return 0


def cmd_transmute(args) -> int:
    deltas = np.linspace(0.0, args.delta_max, args.points)
    omega = args.omega if args.omega is not None else 4.0 * math.pi
    rows = []
    for delta in deltas:
        params = ModelParams(m=args.m, delta_m=float(delta))
        rows.append(
            {
                "delta_over_lambda": float(delta),
                "m": args.m,
                "omega_solid": omega,
                "alpha": statistical_factor(params, omega),
                "ratio": detuning_ratio(params),
            }
        )
    diagnostics = {
        "alpha_resonant": rows[0]["alpha"],
        "alpha_final": rows[-1]["alpha"],
    }
    emit_rows(rows, args, diagnostics)
    if args.strict:
        alphas = [row["alpha"] for row in rows]
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            print("strict: alpha is not strictly decreasing", file=sys.stderr)
            return 2
    return 0


def cmd_two_anyon(args) -> int:
    omega = args.omega if args.omega is not None else 2.0 * math.pi
    theta = theta_for_solid_angle(omega)
    pair = TwoAnyonParams(m=args.m)
    pair_basis = two_anyon_basis(pair)
    pair_frame = schwinger_frame(pair_basis)
    pair_state = two_anyon_eigenstate(pair, pair_basis)
    path = default_latitude_loop(args.m, theta, args.steps)
    gamma_pair = _per_revolution(berry.holonomy_phase(pair_state, pair_frame, path))

    single = ModelParams(m=args.m)
    single_frame = schwinger_frame(default_basis(single))
    single_state = dressed_state_vector(analytic_eigensystem(single)[0])
    gamma_single = _per_revolution(
        berry.holonomy_phase(single_state, single_frame, path)
    )

    gamma_pair_analytic = two_anyon_analytic_phase(args.m, omega)
    dev_analytic = abs(gamma_pair - gamma_pair_analytic)
    dev_double = abs(gamma_pair - 2.0 * gamma_single)
    h = build_two_anyon_hamiltonian(pair)
    energy = float(
        np.real(np.vdot(pair_state.amplitudes, h.matrix @ pair_state.amplitudes))
    )

    print(f"pair of m = {args.m} excitations, solid angle {omega:.6g}")
    print(f"gamma pair analytic   : {gamma_pair_analytic:+.12f}")
    print(
        f"gamma pair holonomy   : {gamma_pair:+.12f}"
        f"   |diff| = {dev_analytic:.2e}"
    )
    print(
        f"2 x single holonomy   : {2.0 * gamma_single:+.12f}"
        f"   |diff| = {dev_double:.2e}"
    )
    print(f"pair eigen-energy     : {energy:+.9f} (expect +lambda m!)")

    row = {
        "m": args.m,
        "omega_solid": omega,
        "gamma_pair_analytic": gamma_pair_analytic,
        "gamma_pair_holonomy": gamma_pair,
        "gamma_single_holonomy": gamma_single,
        "pair_energy": energy,
    }
    if args.output:
        emit_rows([row], args, {})
    if args.strict and max(dev_analytic, dev_double) > TOL.holonomy_vs_analytic:
        print("strict: pair phase deviates", file=sys.stderr)
        return 2
    return 0


def cmd_ramsey(args) -> int:
    g = args.g if args.g is not None else iontrap.g_for_unit_coupling(args.eta, args.m)
    trap = iontrap.TrapParams(
        g=g, eta=args.eta, nu=args.nu, m=args.m, delta_m=args.delta
    )
    omega_max = args.omega_max if args.omega_max is not None else 4.0 * math.pi
    omegas = np.linspace(0.0, omega_max, args.omega_points)
    rows = iontrap.ramsey_sweep(
        trap,
        [float(o) for o in omegas],
        args.total_time,
        pulse_mode=args.pulse_mode,
        n_steps=args.loop_steps,
    )
    worst = 0.0
    for row in rows:
        predicted = iontrap.predicted_p_down(
            trap, row["gamma_analytic"], args.pulse_mode
        )
        worst = max(worst, abs(row["p_down"] - predicted))
    emit_rows(rows, args, {"worst_p_down_deviation": worst})
    if args.budget:
        schedule = iontrap.ramsey_schedule(trap, omega_max, args.total_time, args.loop_steps)
        for entry in iontrap.adiabaticity_budget(trap, schedule):
            print(
                f"budget {entry.name}: {entry.ratio:.4g} [{entry.verdict}]",
                file=sys.stderr,
            )
    if args.strict and trap.delta_m == 0.0 and worst > TOL.ramsey_phase:
        print(
            f"strict: worst p_down deviation {worst:.3e} exceeds"
            f" {TOL.ramsey_phase}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_selftest(args) -> int:
    return selftest.main()


# --- parser assembly ---


def _angle(text: str) -> float:
    return parse_angle(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="anyonjc", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write results to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--strict", action="store_true", help="exit 2 on check failure")
        p.add_argument("--jobs", type=int, default=1, help="ignored; runs are serial")

    p = sub.add_parser("phase", help="phases of one doublet over one loop")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.0, help="detuning over coupling")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--n-prime", type=int, default=0)
    p.add_argument("--branch", choices=("+", "-"), default="+")
    p.add_argument("--theta", type=_angle, default=None)
    p.add_argument("--omega", type=_angle, default=None, help="solid angle (wins)")
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--revolutions", type=int, default=0, help="0 = parity default")
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--adiabatic", action="store_true", help="also integrate in time")
    p.add_argument("--total-time", type=float, default=200.0)
    p.add_argument("--extrapolate", action="store_true", help="two-run 1/T removal")
    common(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("fig1", help="ratio and entropy against detuning")
    p.add_argument("--m-list", default="1,2,3")
    p.add_argument("--delta-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--with-holonomy", action="store_true")
    p.add_argument("--steps", type=int, default=512)
    common(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("transmute", help="statistics parameter against detuning")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--omega", type=_angle, default=None, help="default 4pi")
    p.add_argument("--delta-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=21)
    common(p)
    p.set_defaults(func=cmd_transmute)

    p = sub.add_parser("two-anyon", help="exchange-coupled pair cross-check")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--omega", type=_angle, default=None, help="default 2pi")
    p.add_argument("--steps", type=int, default=1024)
    common(p)
    p.set_defaults(func=cmd_two_anyon)

    p = sub.add_parser("ramsey", help="trapped-ion interferometer simulation")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--g", type=float, default=None, help="default: unit coupling")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--total-time", type=float, default=200.0)
    p.add_argument("--omega-points", type=int, default=9)
    p.add_argument("--omega-max", type=_angle, default=None, help="default 4pi")
    p.add_argument("--pulse-mode", choices=iontrap.PULSE_MODES, default="timed")
    p.add_argument("--loop-steps", type=int, default=256)
    p.add_argument("--budget", action="store_true", help="print adiabaticity budget")
    common(p)
    p.set_defaults(func=cmd_ramsey)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser: parsing leaves it unchanged, so every
    in-process call of main shares it and pays only for its subcommand."""
    return build_parser()


def load_config_file(path: str) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = stripped.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _config_tokens(args) -> list[str]:
    """The --config file as option tokens of the chosen subcommand: --key
    for a true flag such as strict (none for a false one), --key=value for
    any other key. Any key that is not an option of the subcommand,
    command and config included, is unknown."""
    tokens = []
    for key, raw in load_config_file(args.config).items():
        if key in ("config", "command", "func") or not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):  # only flags parse to a bool
            if raw.lower() not in _TRUE + _FALSE:
                raise ValueError(
                    f"config flag {key!r} takes 1/0, true/false, yes/no or on/off"
                )
            tokens += [flag] if raw.lower() in _TRUE else []
        else:
            tokens.append(f"{flag}={raw}")
    return tokens


def _command_index(argv: list[str]) -> int:
    """Index of the subcommand token; only --config options precede it."""
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return i


# Largest magnitude of a float flag, so that its square stays finite.
FLOAT_LIMIT = 1e150
# Most grid points of --points (fig1, transmute) and of --omega-points
# (ramsey, where each point is a whole simulated wait).
MAX_POINTS = 10_000
MAX_OMEGA_POINTS = 1_000


def _check_args(args) -> None:
    """Reject float flags the numerics cannot represent, grids above
    MAX_POINTS or MAX_OMEGA_POINTS and an empty --m-list (exit 4). Sizes
    are guarded where they are spent: basis, loop, lift and factorial
    limits raise SizeLimit from the library."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not abs(value) <= FLOAT_LIMIT:  # or NaN
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} {value!r} is not finite or above {FLOAT_LIMIT:g}")
    for name, cap in (("points", MAX_POINTS), ("omega_points", MAX_OMEGA_POINTS)):
        if not 1 <= getattr(args, name, 1) <= cap:
            raise ValueError(f"--{name.replace('_', '-')} must lie in [1, {cap}]")
    if hasattr(args, "m_list") and not _m_values(args):
        raise ValueError("--m-list names no m")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file options go right after the command token, so argparse
            # checks them like flags and an explicit flag, in any spelling
            # it accepts, comes later and wins
            at = _command_index(argv) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        _check_args(args)
        return args.func(args)
    except (NonAdiabatic, NormDrift) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # bad input: out-of-range angles and sizes, and the step and size
        # caps (StepLimit, SizeLimit), which double as ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
