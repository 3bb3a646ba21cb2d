"""Seeded operation generators, executors and reference checks.

Every workload is a closed loop: one caller, the next operation starts
when the previous one returns. Operations come in cycles whose cost mix is
the same for every seed; the seed draws the parameters inside each cycle.
A run always executes whole cycles, so the median latency and the
throughput compare like with like across seeds and commits.

``execute`` is the timed part and only calls the program. ``check`` runs
after the timed loop and compares each result with an independent
reference: the closed form from ``anyonjc.model``,
``two_anyon_analytic_phase`` or ``iontrap.predicted_p_down``, with the
tolerances in ``anyonjc.config.TOL``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

from anyonjc import berry, cli, iontrap, model, paths
from anyonjc.config import TOL
from tracing import GUARDS

PI = math.pi
FORMATS = ("csv", "json")


def _raised(exc: BaseException) -> dict:
    return {"raised": type(exc).__name__}


def _fail_from_raise(outcome: dict) -> str:
    kind = "guard" if outcome["raised"] in GUARDS else "exception"
    return f"{kind}: {outcome['raised']}"


class Workload:
    name = ""
    cycle = 1  # operations per cycle
    list_cycles = 1  # cycles in the generated list (wrapped around if used up)
    trace_cycles = 1  # cycles run by each pass of the traced run
    warmup_s = 0.0  # untimed running before a pass; throughput climbs for a few seconds

    def generate(self, rng) -> list[dict]:
        ops = []
        for _ in range(self.list_cycles):
            ops.extend(self.cycle_ops(rng))
        return ops

    def cycle_ops(self, rng) -> list[dict]:
        raise NotImplementedError

    def execute(self, op: dict, ctx) -> dict:
        raise NotImplementedError

    def check(self, op: dict, outcome: dict) -> dict:
        raise NotImplementedError


# --- holonomy ---------------------------------------------------------------


class Holonomy(Workload):
    name = "holonomy"
    PAIR_SLOTS = {2: 1, 6: 2}  # step stratum -> m of the exchange-coupled pair
    cycle = 8
    list_cycles = 1024
    trace_cycles = 100
    warmup_s = 3.0

    def cycle_ops(self, rng):
        # one even step count per stratum of [512, 4096), log-spaced, so
        # every cycle straddles the ~1024 lifted-row BLAS threading
        # threshold. Even, because holonomy_phase skips its Richardson
        # sweep on an odd cycle and the raw estimator misses 1e-6.
        steps = [2 * int(256 * 8 ** ((i + rng.random()) / 8)) for i in range(8)]
        ops = []
        for i, n_steps in enumerate(steps):
            theta = rng.uniform(0.02, PI - 0.02)
            if i in self.PAIR_SLOTS:
                ops.append({"kind": "pair", "m": self.PAIR_SLOTS[i], "theta": theta, "steps": n_steps})
                continue
            ops.append(
                {
                    "kind": "doublet",
                    "m": rng.randint(1, 3),
                    "n": rng.randint(0, 2),
                    "n_prime": rng.randint(0, 2),
                    "delta": rng.uniform(-10.0, 10.0),
                    "theta": theta,
                    "branch": rng.choice("+-"),
                    "steps": n_steps,
                }
            )
        return ops

    def execute(self, op, ctx):
        try:
            if op["kind"] == "pair":
                pair = model.TwoAnyonParams(m=op["m"])
                basis = model.two_anyon_basis(pair)
                frame = paths.schwinger_frame(basis)
                state = model.two_anyon_eigenstate(pair, basis)
            else:
                params = model.ModelParams(
                    m=op["m"], delta_m=op["delta"], n=op["n"], n_prime=op["n_prime"]
                )
                frame = paths.schwinger_frame(model.default_basis(params))
                plus, minus = model.analytic_eigensystem(params)
                state = model.dressed_state_vector(plus if op["branch"] == "+" else minus)
            path = paths.default_latitude_loop(op["m"], op["theta"], op["steps"])
            report = berry.holonomy_phase(state, frame, path)
            return {"gamma": report.gamma_per_revolution, "omega": path.omega_solid}
        except Exception as exc:
            return _raised(exc)

    def check(self, op, outcome):
        if "raised" in outcome:
            return {"fail": _fail_from_raise(outcome)}
        if outcome["gamma"] is None:
            return {"fail": "unresolved winding"}
        if op["kind"] == "pair":
            want = model.two_anyon_analytic_phase(op["m"], outcome["omega"])
        else:
            params = model.ModelParams(
                m=op["m"], delta_m=op["delta"], n=op["n"], n_prime=op["n_prime"]
            )
            want = model.analytic_berry_phase(params, outcome["omega"], branch=op["branch"])
        err = abs(outcome["gamma"] - want)
        fail = None if err <= TOL.holonomy_vs_analytic else "outside TOL.holonomy_vs_analytic"
        return {"fail": fail, "phase_err": err}


# --- adiabatic --------------------------------------------------------------


def wobbly_polygon(rng, n_vertices=24):
    """Spherical polygon around a wobbling latitude band.

    The closing vertex is given explicitly at phi = 2 pi: the drive
    interpolates (theta, phi) linearly between vertices, and an implicit
    closing edge back to phi = 0 would sweep the azimuth backwards.
    """
    theta0 = rng.uniform(0.6, 1.2)
    amp = rng.uniform(0.1, 0.2)
    lobes = rng.randint(1, 3)
    shift = rng.uniform(0.0, 2.0 * PI)
    return [
        [theta0 + amp * math.sin(lobes * phi + shift), phi]
        for phi in (2.0 * PI * k / n_vertices for k in range(n_vertices + 1))
    ]


class Adiabatic(Workload):
    name = "adiabatic"
    # (loop, m, extrapolated). Single operations swing by +-25% on a shared
    # 2-core VM, so the median needs many samples of one cost. Sorted by
    # cost a cycle is two m = 1 latitude runs (about 1 s; the lift is
    # reused), four m = 1 polygon runs (about 1.2 s) and two dearer slots,
    # an extrapolated m = 2 latitude pair and an m = 3 latitude run: the
    # median of whole cycles falls in the middle of the polygon cluster.
    MIX = (
        ("latitude", 1, False),
        ("polygon", 1, False),
        ("polygon", 1, False),
        ("latitude", 1, False),
        ("polygon", 1, False),
        ("polygon", 1, False),
        ("latitude", 2, True),
        ("latitude", 3, False),
    )
    TOTAL_TIME = 125.0
    cycle = len(MIX)
    list_cycles = 64
    trace_cycles = 1

    def cycle_ops(self, rng):
        ops = []
        for loop, m, extrapolate in self.MIX:
            op = {
                "loop": loop,
                "m": m,
                "extrapolate": extrapolate,
                # Negative detuning narrows the gap above the plus branch and
                # wider loops drive faster; both push the leak guard (1e-2)
                # and the extrapolated error (1e-2) to the edge. The step
                # count grows with T and the detuning, so both are held
                # close to fixed to keep each slot's cost the same.
                "delta": rng.uniform(0.0, 0.5),
                "total_time": self.TOTAL_TIME,
            }
            if loop == "latitude":
                op["theta"] = rng.uniform(0.4, 1.2)
            else:
                op["vertices"] = wobbly_polygon(rng)
            ops.append(op)
        return ops

    def execute(self, op, ctx):
        try:
            params = model.ModelParams(m=op["m"], delta_m=op["delta"])
            frame = paths.schwinger_frame(model.default_basis(params))
            state = model.dressed_state_vector(model.analytic_eigensystem(params)[0])
            h0 = model.build_interaction_hamiltonian(params)
            if op["loop"] == "latitude":
                path = paths.default_latitude_loop(op["m"], op["theta"], 96)
            else:
                path = paths.polygon_loop(op["vertices"])
            schedule = berry.DriveSchedule(path, op["total_time"])
            if op["extrapolate"]:
                report = berry.extrapolated_adiabatic_phase(h0, frame, schedule, state)
            else:
                _, report = berry.adiabatic_evolution(h0, frame, schedule, state)
            return {
                "gamma": report.gamma_per_revolution,
                "omega": path.omega_solid,
                "leak": report.diagnostics["max_nonadiabatic_leak"],
                "drift": report.diagnostics["norm_drift"],
            }
        except Exception as exc:
            return _raised(exc)

    def check(self, op, outcome):
        if "raised" in outcome:
            return {"fail": _fail_from_raise(outcome)}
        params = model.ModelParams(m=op["m"], delta_m=op["delta"])
        err = abs(outcome["gamma"] - model.analytic_berry_phase(params, outcome["omega"]))
        fail = None
        if outcome["leak"] > TOL.leak_threshold:
            fail = "leak above TOL.leak_threshold"
        elif outcome["drift"] > TOL.norm_drift:
            fail = "norm drift above TOL.norm_drift"
        elif op["extrapolate"] and err > TOL.adiabatic_vs_holonomy:
            # a single run carries the physical 1/T shift; only the
            # extrapolated phase is held to the cross-check tolerance
            fail = "outside TOL.adiabatic_vs_holonomy"
        return {"fail": fail, "phase_err": err}


# --- ramsey -----------------------------------------------------------------


def criterion6_trap():
    return iontrap.TrapParams(g=iontrap.g_for_unit_coupling(0.1, 2), eta=0.1, m=2)


class Ramsey(Workload):
    name = "ramsey"
    # (wait time, pulse mode, points per sweep call). The step count is set
    # by the wait time alone, so fixed waits keep each slot's cost the same;
    # the seed draws the solid angles (and the mode of the last slot). Four
    # of the five calls sit at T = 100-115 and cost within a few per cent
    # of each other, so the median of whole cycles falls inside that
    # cluster rather than on the edge of the T = 200 slot.
    MIX = (
        (100.0, "timed", 2),
        (105.0, "instantaneous", 2),
        (110.0, "timed", 2),
        (115.0, "instantaneous", 2),
        (200.0, None, 2),  # the criterion-6 wait time, either mode
    )
    cycle = len(MIX)
    list_cycles = 64
    trace_cycles = 1

    def cycle_ops(self, rng):
        ops = []
        for total_time, mode, points in self.MIX:
            ops.append(
                {
                    "total_time": total_time,
                    "pulse_mode": mode or rng.choice(iontrap.PULSE_MODES),
                    "omegas": [rng.uniform(0.0, 4.0 * PI) for _ in range(points)],
                }
            )
        return ops

    def execute(self, op, ctx):
        try:
            rows = iontrap.ramsey_sweep(
                criterion6_trap(), op["omegas"], op["total_time"], pulse_mode=op["pulse_mode"]
            )
            return {"rows": [(r["omega_solid"], r["p_down"], r["leak"]) for r in rows]}
        except Exception as exc:
            return _raised(exc)

    def check(self, op, outcome):
        if "raised" in outcome:
            return {"fail": _fail_from_raise(outcome)}
        trap = criterion6_trap()
        effective = iontrap.effective_model(trap)
        worst = 0.0
        fail = None
        if [row[0] for row in outcome["rows"]] != op["omegas"]:
            fail = "rows do not match the requested solid angles"
        for omega, p_down, leak in outcome["rows"]:
            gamma = model.analytic_berry_phase(effective, omega)
            want = iontrap.predicted_p_down(trap, gamma, op["pulse_mode"])
            worst = max(worst, abs(p_down - want))
            if leak > TOL.leak_threshold and fail is None:
                fail = "leak above TOL.leak_threshold"
        if worst > TOL.ramsey_phase and fail is None:
            fail = "outside TOL.ramsey_phase"
        return {"fail": fail, "p_down_err": worst}


# --- cli --------------------------------------------------------------------

# Inputs the exit-code contract (0/2/3/4) must reject without a traceback.
MALFORMED = (
    ["phase", "--delta", "nan"],
    ["phase", "--delta", "1e308"],
    ["phase", "--m", "200"],
    ["transmute", "--points", "0"],
    ["phase", "--theta", "nan"],
)


def _num(x: float) -> str:
    return repr(float(x))


class Cli(Workload):
    name = "cli"
    PHASE_SLOTS = ((1, 512), (2, 1024), (3, 2048), (1, 1024), (2, 2048), (3, 512))
    cycle = 15 + len(MALFORMED)
    list_cycles = 128
    trace_cycles = 5
    warmup_s = 3.0

    def cycle_ops(self, rng):
        ops = []
        # m and --steps set a phase call's cost, so each slot fixes them
        for i, (m, steps) in enumerate(self.PHASE_SLOTS):
            argv = [
                "phase",
                "--m", str(m),
                "--n", str(rng.randint(0, 2)),
                "--n-prime", str(rng.randint(0, 2)),
                "--delta", _num(rng.uniform(-10.0, 10.0)),
                "--branch", rng.choice("+-"),
                "--steps", str(steps),
                "--strict",
            ]
            if i == 0:
                argv += ["--omega", rng.choice(("pi/2", "3pi/4", "pi", "2pi", "3pi"))]
            else:
                argv += ["--theta", _num(rng.uniform(0.02, PI - 0.02))]
            out = i < 4
            ops.append({"argv": argv, "format": rng.choice(FORMATS), "output": out, "expect": "ok"})
        m = rng.randint(1, 2)
        ops.append(
            {
                "argv": [
                    "phase", "--m", str(m),
                    "--theta", _num(rng.uniform(0.08, 0.12)),
                    "--adiabatic",
                    "--total-time", _num(rng.uniform(30.0, 34.0) if m == 1 else rng.uniform(20.0, 24.0)),
                ],
                "format": "json", "output": True, "expect": "ok",
            }
        )
        m_list = ",".join(str(v) for v in sorted(rng.sample((1, 2, 3), 2)))
        ops.append(
            {
                "argv": ["fig1", "--m-list", m_list, "--points", "201",
                         "--delta-max", _num(rng.uniform(5.0, 15.0))],
                "format": rng.choice(FORMATS), "output": True, "expect": "ok",
            }
        )
        for jobs in ("1", "2"):
            ops.append(
                {
                    "argv": ["fig1", "--m-list", m_list, "--points", "61", "--with-holonomy",
                             "--steps", "512", "--jobs", jobs, "--strict"],
                    "format": rng.choice(FORMATS), "output": True, "expect": "ok",
                }
            )
        for m in (rng.randint(1, 3), rng.randint(1, 3)):
            ops.append(
                {
                    "argv": ["transmute", "--m", str(m), "--points", "21",
                             "--delta-max", _num(rng.uniform(5.0, 15.0)), "--strict"],
                    "format": rng.choice(FORMATS), "output": True, "expect": "ok",
                }
            )
        for m in (1, 2):
            ops.append(
                {
                    "argv": ["two-anyon", "--m", str(m),
                             "--omega", _num(rng.uniform(0.5, 4.0 * PI - 0.5)), "--strict"],
                    "format": rng.choice(FORMATS), "output": True, "expect": "ok",
                }
            )
        ops.append(
            {
                "argv": ["ramsey", "--omega-points", "2",
                         "--omega-max", _num(rng.uniform(0.1, 0.3)),
                         "--total-time", "20", "--strict"],
                "format": "json", "output": True, "expect": "ok",
            }
        )
        for argv in MALFORMED:
            ops.append({"argv": list(argv), "format": "csv", "output": False, "expect": "reject"})
        return ops

    def execute(self, op, ctx):
        argv = list(op["argv"])
        out_path = None
        if op["output"]:
            out_path = ctx.tmp_dir / f"out-{ctx.next_id()}.{op['format']}"
            argv += ["--format", op["format"], "--output", str(out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        result = {"path": str(out_path) if out_path else None}
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                result["exit"] = cli.main(argv)
            except SystemExit as exc:
                result["exit"] = exc.code
            except Exception as exc:
                result.update(_raised(exc))
                result["exit"] = 1
        return result

    def check(self, op, outcome):
        verdict = {"exit": outcome["exit"], "traceback": "raised" in outcome}
        if op["expect"] == "reject":
            verdict["valid"] = False
            if "raised" in outcome:
                verdict["fail"] = f"traceback: {outcome['raised']}"
            elif outcome["exit"] not in (2, 3, 4):
                verdict["fail"] = f"exit {outcome['exit']}, expected 2, 3 or 4"
            else:
                verdict["fail"] = None
            return verdict
        if "raised" in outcome:
            verdict["fail"] = f"traceback: {outcome['raised']}"
            return verdict
        if outcome["exit"] != 0:
            verdict["fail"] = f"exit {outcome['exit']}, expected 0"
            return verdict
        verdict["fail"] = None
        if outcome["path"]:
            try:
                verdict.update(_check_rows(op["argv"], _read_rows(Path(outcome["path"]), op["format"])))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                verdict["fail"] = f"unreadable output: {type(exc).__name__}"
        return verdict


def _read_rows(path: Path, fmt: str) -> list[dict]:
    text = path.read_text()
    if fmt == "json":
        return json.loads(text)["rows"]
    return [
        {k: (float(v) if k not in ("branch",) and v not in ("", None) else v) for k, v in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_rows(argv, rows) -> dict:
    """Compare a subcommand's emitted rows with independent references."""
    command = argv[0]
    phase_errs: list[float] = []
    fail = None
    if command == "phase":
        row = rows[0]
        params = model.ModelParams(
            m=int(row["m"]), delta_m=float(row["delta_m"]),
            n=int(row["n"]), n_prime=int(row["n_prime"]),
        )
        want = model.analytic_berry_phase(params, float(row["omega_solid"]), branch=row["branch"])
        phase_errs.append(abs(float(row["gamma_holonomy"]) - want))
        if phase_errs[-1] > TOL.holonomy_vs_analytic:
            fail = "holonomy outside TOL.holonomy_vs_analytic"
        if "gamma_adiabatic" in row:
            phase_errs.append(abs(float(row["gamma_adiabatic"]) - want))
            if float(row["adiabatic_leak"]) > TOL.leak_threshold:
                fail = "adiabatic leak above TOL.leak_threshold"
    elif command == "fig1":
        points = int(_flag(argv, "--points"))
        if len(rows) != points * len(_flag(argv, "--m-list").split(",")):
            fail = "wrong number of fig1 rows"
        for row in rows:
            want = model.detuning_ratio(
                model.ModelParams(m=int(row["m"]), delta_m=float(row["delta_over_lambda"]))
            )
            if "ratio_holonomy" in row and abs(float(row["ratio_holonomy"]) - want) > TOL.holonomy_vs_analytic:
                fail = "holonomy ratio outside TOL.holonomy_vs_analytic"
    elif command == "transmute":
        if len(rows) != int(_flag(argv, "--points")):
            fail = "wrong number of transmute rows"
    elif command == "two-anyon":
        row = rows[0]
        want = model.two_anyon_analytic_phase(int(row["m"]), float(row["omega_solid"]))
        phase_errs.append(abs(float(row["gamma_pair_holonomy"]) - want))
        if phase_errs[-1] > TOL.holonomy_vs_analytic:
            fail = "pair phase outside TOL.holonomy_vs_analytic"
    elif command == "ramsey":
        trap = criterion6_trap()
        effective = iontrap.effective_model(trap)
        for row in rows:
            gamma = model.analytic_berry_phase(effective, float(row["omega_solid"]))
            want = iontrap.predicted_p_down(trap, gamma, "timed")
            if abs(float(row["p_down"]) - want) > TOL.ramsey_phase:
                fail = "p_down outside TOL.ramsey_phase"
    out = {"fail": fail}
    if phase_errs:
        out["phase_err"] = max(phase_errs)
    return out


WORKLOADS = {w.name: w for w in (Holonomy(), Adiabatic(), Ramsey(), Cli())}
