"""Command line behaviour: parsing, output formats, exit codes.

Everything drives cli.main() in process; a single subprocess test pins
the installed entry point.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonjc
from anyonjc import berry, cli, iontrap
from anyonjc.cli import build_parser, load_config_file, main, parse_angle
from anyonjc.config import TOL


# Argv fuzz: every subcommand, from a small base argv, with up to three of
# its flags appended (a repeated flag overrides the base). Values mix
# non-finite, huge, zero, negative and ordinary entries. Flags that set the
# run time (grid points, loop samples, drive energy and wait) stay at the
# cheap end of the range or go far above the basis and step caps, which
# must reject them at once, so each example takes well under a second;
# --jobs never exceeds 2. A plain `selftest` run is criterion 8's job; here
# it only ever sees flags it must reject.
EDGE = ("nan", "inf", "1e308", "1e-200", "0", "-1")
VALUES = EDGE + ("8", "200", "pi/2")
JOBS = ("--jobs", ("-1", "0", "2"))
FUZZ = {
    "phase": (
        [],
        [
            ("--m", VALUES),
            ("--n", EDGE + ("8", "100", "100000")),
            ("--n-prime", EDGE + ("8",)),
            ("--delta", VALUES),
            ("--theta", VALUES),
            ("--omega", VALUES),
            ("--steps", VALUES),
            ("--revolutions", EDGE + ("2",)),
            ("--branch", ("+", "-", "0")),
            JOBS,
        ],
    ),
    "fig1": (
        ["--points", "3"],
        [
            ("--m-list", EDGE + ("8", "200", "1,200", "171", ",", "2,x")),
            ("--delta-max", VALUES),
            ("--points", EDGE + ("8",)),
            ("--steps", VALUES),
            ("--with-holonomy", ("--strict",)),
            JOBS,
        ],
    ),
    "transmute": (
        [],
        [
            ("--m", VALUES),
            ("--omega", VALUES),
            ("--delta-max", VALUES),
            ("--points", VALUES),
            JOBS,
        ],
    ),
    "two-anyon": (
        [],
        [
            ("--m", EDGE + ("2", "8", "100")),
            ("--omega", VALUES),
            ("--steps", VALUES),
            JOBS,
        ],
    ),
    "ramsey": (
        ["--omega-points", "2", "--total-time", "20"],
        [
            ("--m", EDGE + ("1", "200")),
            ("--eta", VALUES),
            ("--g", VALUES),
            ("--nu", VALUES),
            ("--delta", EDGE + ("8", "1e100")),
            ("--total-time", EDGE + ("8", "1e12")),
            ("--omega-points", EDGE + ("1",)),
            ("--omega-max", VALUES),
            ("--loop-steps", VALUES),
            JOBS,
        ],
    ),
    "selftest": ([], [("--m", VALUES), JOBS]),
}


def fuzzed_argv(command: str):
    base, flags = FUZZ[command]
    pair = st.sampled_from(flags).flatmap(
        lambda flag: st.tuples(st.just(flag[0]), st.sampled_from(flag[1]))
    )
    return st.lists(pair, min_size=1, max_size=3).map(
        lambda pairs: [command, *base, *(tok for p in pairs for tok in p)]
    )


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", 0.0),
            ("0.75", 0.75),
            ("3/4", 0.75),
            ("pi", math.pi),
            ("PI", math.pi),
            ("2pi", 2 * math.pi),
            ("4pi", 4 * math.pi),
            ("2pi/3", 2 * math.pi / 3),
            ("pi/2", math.pi / 2),
            ("-pi/2", -math.pi / 2),
            ("1.5e-1", 0.15),
            (" 2 * pi ", 2 * math.pi),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "/3", "pi/0", "abc", "2x", "pi pi"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    @given(st.floats(-50.0, 50.0))
    def test_plain_float_round_trip(self, x):
        assert parse_angle(repr(x)) == pytest.approx(x, rel=1e-15, abs=1e-300)

    @given(st.integers(1, 12), st.integers(1, 12))
    def test_rational_pi_round_trip(self, num, den):
        assert parse_angle(f"{num}pi/{den}") == pytest.approx(
            num * math.pi / den, rel=1e-15
        )


class TestConfigFile:
    def test_round_trip_and_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 3\ndelta = 0.5\n# comment line\n\nsteps = 128\n")
        code = main(
            ["--config", str(cfg), "phase", "--steps", "256"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "m = 3" in out
        assert "delta/lambda = 0.5" in out
        assert "256 steps" in out  # explicit flag beat the file value

    def test_unknown_key_exits_4(self, tmp_path, capsys):
        # keys come from the chosen subcommand alone: command= and config=
        # are unknown (command=ramsey ended phase and transmute in a
        # traceback), and a flag takes only an explicit truth value
        cfg = tmp_path / "bad.cfg"
        for text, command in [
            ("frobnicate = 1", "phase"),
            ("command = ramsey", "phase"),
            ("command = ramsey", "transmute"),
            ("config = other.cfg", "phase"),
            ("loop_steps = 64", "phase"),
            ("strict = maybe", "phase"),
        ]:
            cfg.write_text(text + "\n")
            assert main(["--config", str(cfg), command]) == 4, text
            err = capsys.readouterr().err
            assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value,strict", [("yes", True), ("On", True), ("0", False)])
    def test_flag_keys_take_a_truth_value(self, tmp_path, capsys, value, strict):
        # a strict transmute run passes its check, so the JSON config shows
        # what the file set
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.json"
        cfg.write_text(f"strict = {value}\npoints = 2\n")
        argv = ["--config", str(cfg), "transmute", "--format", "json", "--output", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["config"]["strict"] is strict

    def test_abbreviated_flags_beat_the_file(self, tmp_path, capsys):
        # argparse accepts any unique prefix of a long option
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.json"
        cfg.write_text("total-time = 100\nsteps = 64\n")
        argv = ["--config", str(cfg), "phase", "--total", "50", "--ste", "32",
                "--format", "json", "--output", str(out)]
        assert main(argv) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["total_time"], config["steps"]) == (50.0, 32)
        assert "32 steps" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text,command", [("branch = x", "phase"), ("format = xml", "transmute")]
    )
    def test_file_values_pass_the_choices_check(self, tmp_path, capsys, text, command):
        # the same values exit 4 as flags on the command line
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), command, "--output", str(tmp_path / "x")])
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert "invalid choice" in err and len(err.strip().splitlines()) == 1

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ValueError):
            load_config_file(str(cfg))

    def test_missing_file_exits_4(self, capsys):
        assert main(["--config", "/nonexistent/nowhere.cfg", "phase"]) == 4


class TestSharedParser:
    def test_two_calls_build_the_parser_once(self, monkeypatch, capsys):
        calls = []

        def counted():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        assert main(["transmute", "--points", "2"]) == 0
        assert main(["transmute", "--points", "2"]) == 0
        assert len(calls) == 1

    def test_config_values_do_not_outlive_their_call(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 64\n")
        assert main(["--config", str(cfg), "phase"]) == 0
        assert "64 steps" in capsys.readouterr().out
        assert main(["phase"]) == 0
        assert "1024 steps" in capsys.readouterr().out

    def test_usage_error_leaves_the_next_call_as_in_a_fresh_process(self, capsys):
        argv = ["transmute", "--points", "2"]
        fresh = subprocess.run(
            [sys.executable, "-m", "anyonjc", *argv], capture_output=True, text=True
        )
        with pytest.raises(SystemExit) as exc:
            main(["phase", "--badflag"])
        assert exc.value.code == 4
        capsys.readouterr()
        assert main(argv) == fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


class TestPhaseCommand:
    def test_strict_resonant_passes(self, capsys):
        code = main(["phase", "--m", "2", "--theta", "pi/2", "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "+3.141592653590" in out

    def test_strict_coarse_unrefined_fails_cross_check(self, capsys):
        code = main(
            ["phase", "--m", "2", "--theta", "pi/2", "--steps", "16",
             "--no-refine", "--strict"]
        )
        assert code == 2

    def test_omega_flag_overrides_theta(self, capsys):
        code = main(["phase", "--m", "1", "--omega", "2pi"])
        out = capsys.readouterr().out
        assert code == 0
        assert "solid angle 6.28319" in out


class TestTableCommands:
    def test_fig1_header_and_resonant_row(self, capsys):
        code = main(["fig1", "--points", "5", "--m-list", "1,2"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "delta_over_lambda,m,ratio,linear_entropy"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == pytest.approx(1.0)
        assert float(first[3]) == pytest.approx(0.5)
        assert len(lines) == 1 + 2 * 5

    def test_fig1_ratio_monotone(self, capsys):
        main(["fig1", "--points", "21", "--m-list", "2"])
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        ratios = [float(r.split(",")[2]) for r in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_fig1_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig1", "--points", "7", "--output", str(out1)])
        main(["fig1", "--points", "7", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_fig1_holonomy_column_jobs(self, capsys):
        code = main(
            ["fig1", "--points", "3", "--m-list", "2", "--with-holonomy",
             "--steps", "256", "--jobs", "2", "--strict"]
        )
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0].endswith(",ratio_holonomy")
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[4]) == pytest.approx(float(parts[2]), abs=1e-6)

    def test_transmute_strictly_decreasing(self, capsys):
        code = main(["transmute", "--m", "2", "--points", "9", "--strict"])
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert code == 0
        alphas = [float(r.split(",")[3]) for r in rows]
        assert alphas[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_two_anyon_doubling(self, capsys):
        code = main(["two-anyon", "--m", "1", "--omega", "2pi", "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "+3.141592653590" in out  # pair analytic = (1/2) * 2pi * ... = pi

    def test_json_structure(self, tmp_path):
        target = tmp_path / "out.json"
        code = main(
            ["transmute", "--points", "3", "--format", "json",
             "--output", str(target)]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert set(data) == {"config", "rows", "diagnostics"}
        assert len(data["rows"]) == 3
        assert data["config"]["points"] == 3
        assert data["diagnostics"]["alpha_resonant"] == pytest.approx(1.0)
        # the run names the software it came from
        provenance = data["diagnostics"]["provenance"]
        assert provenance == {"anyonjc": anyonjc.__version__, "numpy": np.__version__}


class TestRamseyCommand:
    def test_header_and_strict_pass(self, capsys):
        code = main(
            ["ramsey", "--omega-points", "2", "--total-time", "200",
             "--loop-steps", "128", "--strict"]
        )
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == (
            "m,eta,g,delta_m,omega_solid,total_time,p_down,"
            "gamma_inferred,gamma_analytic,leak,n_steps,norm_drift,branch_transfer"
        )
        assert len(lines) == 3

    def test_json_rows_carry_run_record(self, tmp_path):
        target = tmp_path / "out.json"
        argv = ["ramsey", "--omega-points", "2", "--total-time", "60",
                "--format", "json", "--output", str(target)]
        assert main(argv) == 0
        rows = json.loads(target.read_text())["rows"]
        assert len(rows) == 2
        for row in rows:
            assert isinstance(row["n_steps"], int) and row["n_steps"] > 0
            assert 0.0 <= row["norm_drift"] < 1e-9
            assert 0.0 <= row["branch_transfer"] < TOL.leak_threshold

    def test_budget_rates_are_those_of_the_snapped_drive(self, capsys):
        # --total-time 12 snaps to three doublet cycles, 13.33 at unit
        # coupling: the smoothstep's peak phi' is 1.5 * 2 pi / 13.33 = 0.7071
        argv = ["ramsey", "--omega-points", "1", "--total-time", "12", "--budget"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "budget phi_rate_over_coupling: 0.7071 [fail]" in err.splitlines()

    def test_budget_is_that_of_the_drive_that_runs(self, monkeypatch):
        # the budget's schedule has the sweep's --loop-steps, not a default
        steps = []
        original = iontrap.ramsey_schedule

        def recording(trap, omega, total_time, n_steps):
            steps.append(n_steps)
            return original(trap, omega, total_time, n_steps)

        monkeypatch.setattr(iontrap, "ramsey_schedule", recording)
        argv = ["ramsey", "--omega-points", "2", "--total-time", "50", "--budget",
                "--loop-steps", "64"]
        assert main(argv) == 0
        assert steps == [64, 64, 64]

    def test_fast_drive_exits_3(self, capsys):
        code = main(["ramsey", "--omega-points", "2", "--total-time", "3"])
        assert code == 3
        assert "too fast" in capsys.readouterr().err


def traced_main(argv):
    """main(argv) and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExitCodes:
    def test_usage_error_exits_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phase", "--badflag"])
        assert exc.value.code == 4

    def test_unknown_command_exits_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["warp"])
        assert exc.value.code == 4

    BAD_VALUES = {
        "phase --theta 4pi": "theta 12.566370614359172 outside [0, pi]",
        "phase --omega 5pi": "solid angle 15.707963267948966 outside [0, 4*pi]",
        "ramsey --omega-max 13": "solid angle 13.0 outside [0, 4*pi]",
        "phase --theta 4": "theta 4.0 outside [0, pi]",
        "phase --steps 7": "need at least 8 steps per revolution",
        "ramsey --loop-steps 7": "need at least 8 steps per revolution",
    }

    @pytest.mark.parametrize("argv", BAD_VALUES)
    def test_bad_value_exits_4(self, capsys, argv):
        assert main(argv.split()) == 4
        assert capsys.readouterr().err == f"error: {self.BAD_VALUES[argv]}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "--delta", "nan"],
            ["phase", "--delta", "1e308"],
            ["phase", "--m", "200"],
            ["transmute", "--points", "0"],
            ["fig1", "--m-list", "200"],
            ["fig1", "--m-list", "1,200"],
            ["fig1", "--m-list", "171"],
            ["ramsey", "--omega-points", "0"],
            ["ramsey", "--eta", "0"],
            ["ramsey", "--total-time", "1e12"],
            ["phase", "--n", "400"],
            ["two-anyon", "--m", "30"],
            ["phase", "--steps", "100000000"],
            ["phase", "--revolutions", "1000000"],
            ["ramsey", "--loop-steps", "1000000"],
            ["ramsey", "--omega-points", "1000000"],
            ["ramsey", "--omega-points", "1000", "--loop-steps", "249999"],
            ["fig1", "--points", "100000000"],
            ["fig1", "--with-holonomy", "--steps", "1000000"],
            ["two-anyon", "--steps", "10000000"],
            ["ramsey", "--nu", "-1"],
            ["ramsey", "--m", "-1"],
            ["ramsey", "--g", "1e-200"],
            ["ramsey", "--eta", "1e-200"],
            ["phase", "--adiabatic", "--total-time", "1e-300"],
            ["ramsey", "--g", "1", "--m", "200"],
            ["ramsey", "--g", "1", "--m", "100"],
            ["transmute", "--m", "200"],
            ["two-anyon", "--m", "171"],
            ["fig1", "--with-holonomy", "--points", "3", "--m-list", "1,200"],
            # usage errors, which argparse ends with SystemExit
            ["phase", "--theta", "nan"],
            ["phase", "--m", "1.5"],
            ["warp"],
            # a nonpositive wait used to run one doublet cycle and exit 3
            ["ramsey", "--total-time", "-5", "--omega-points", "2"],
            ["ramsey", "--total-time", "0"],
        ],
    )
    def test_unrepresentable_input_exits_4(self, argv, capsys):
        # each used to end in a traceback (exit 1) or an empty table (exit
        # 0), or, for a usage error, in the usage block before its line
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "limit", [("winding_step_cap", 0.2), ("vanishing_overlap", 0.9)], ids=lambda x: x[0]
    )
    def test_fig1_with_one_too_coarse_point_exits_2(self, limit, monkeypatch, capsys):
        # of the five points of m = 2 at 8 steps only the resonant one
        # steps its phase by more than 0.2 rad or dips below 0.9 overlap
        monkeypatch.setattr(berry, "TOL", replace(TOL, **dict([limit])))
        argv = ["fig1", "--with-holonomy", "--m-list", "2", "--points", "5", "--steps", "8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error: ")
        assert ("winding unresolved" in line) == (limit[0] == "winding_step_cap")

    @pytest.mark.parametrize(
        "argv,limit",
        [
            # the m = 1 loop alone would take 32 MB
            (["fig1", "--with-holonomy", "--steps", "1000000"], "MAX_LIFTED"),
            # the first loop alone would take 48 MB
            (["ramsey", "--loop-steps", "1000000"], "MAX_STEPS"),
        ],
    )
    def test_size_limit_exits_4_before_allocating(self, argv, limit, capsys):
        code, peak = traced_main(argv)
        assert code == 4
        assert limit in capsys.readouterr().err
        assert peak < 1_000_000

    def test_fig1_holonomy_peak_does_not_grow_with_points(self, tmp_path):
        peaks = []
        for points in ("21", "201"):
            argv = ["fig1", "--with-holonomy", "--m-list", "3", "--points", points,
                    "--output", str(tmp_path / f"{points}.csv")]
            code, peak = traced_main(argv)
            assert code == 0
            peaks.append(peak)
        # the states run one at a time, so 201 points hold what 21 do
        assert peaks[1] - peaks[0] < 1_000_000

    def test_unresolved_winding_exits_2(self, capsys):
        # 8 steps cannot resolve the winding of the n = 100 doublet
        assert main(["phase", "--n", "100", "--m", "1", "--steps", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "winding unresolved" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(FUZZ)).flatmap(fuzzed_argv))
    def test_fuzzed_argv_keeps_exit_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "anyonjc", "transmute", "--points", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("delta_over_lambda,")
