import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ionpulse
from ionpulse import cli as cli_module
from ionpulse import hilbert
from ionpulse.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"

CANONICAL_2 = """\
ions N=2
carrier_pi2 ion=2
jc_pi ion=2 n=0
disp_pi all n=1
disp_pi ion=2 n=1
jc_pi ion=2 n=0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrepare:
    def test_reports_unit_fidelity(self, capsys):
        code, out, _ = run_cli(capsys, "prepare", "--ions", "4")
        assert code == 0
        assert "fidelity: 1.000000000000" in out
        assert out.count("step ") == 5

    def test_physical_mode_same_fidelity(self, capsys):
        code, out, _ = run_cli(capsys, "prepare", "--ions", "4", "--mode", "physical")
        assert code == 0
        assert "fidelity: 1.000000000000" in out

    def test_zero_ions_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "prepare", "--ions", "0")
        assert code == 2
        assert "n_ions" in err

    def test_omega0_reports_phase(self, capsys):
        code, out, _ = run_cli(capsys, "prepare", "--ions", "2", "--omega0", "2.0")
        assert code == 0
        phi_line = [line for line in out.splitlines() if line.startswith("phi:")][0]
        t5_line = [line for line in out.splitlines() if line.startswith("step 5")][0]
        t5 = float(t5_line.split("t=")[1].split()[0])
        assert float(phi_line.split()[1]) == pytest.approx(2 * 2.0 * t5, rel=1e-12)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_omega0_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "prepare", "--ions", "2", "--omega0", value)
        assert code == 2
        assert f"omega0 must be finite, got {value}" in err
        assert out == ""

    def test_overflowing_phase_usage_error(self, capsys):
        # omega0 is finite, but N * omega0 * t5 overflows: no "phi: inf" and exit 0
        code, out, err = run_cli(capsys, "prepare", "--ions", "2", "--omega0", "1e306")
        assert code == 2
        [error] = [line for line in err.splitlines() if "error:" in line]
        assert "omega0" in error and "N*omega0*t5" in error
        assert out == ""

    def test_dump_state_schema(self, capsys, tmp_path):
        out_path = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys, "prepare", "--ions", "2", "--dump-state", "--output", str(out_path)
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["n_ions"] == 2 and data["n_max"] == 4
        assert len(data["amplitudes"]) == 4 * 5
        re0, im0 = data["amplitudes"][0]
        assert math.hypot(re0, im0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


class TestRamseyScan:
    ARGS = [
        "ramsey-scan",
        "--ions",
        "2",
        "--delta-min",
        "0",
        "--delta-max",
        "3.14159e-5",
        "--points",
        "9",
        "--wait",
        "100000",
    ]

    @pytest.mark.parametrize("points", [9, 1], ids=["points-9", "points-1"])
    def test_csv_output_and_gate(self, capsys, points):
        args = list(self.ARGS)
        args[args.index("--points") + 1] = str(points)
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,T,P_sim,P_analytic"
        assert len(lines) == points + 1
        assert float(lines[1].split(",")[0]) == float(args[args.index("--delta-min") + 1])
        assert "max_abs_error:" in err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_rows_match_formula(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        for line in out.strip().splitlines()[1:]:
            delta, wait, p_sim, p_ref = (float(c) for c in line.split(","))
            assert p_ref == pytest.approx(0.5 * (1 - math.cos(2 * delta * wait)), abs=1e-12)
            assert p_sim == pytest.approx(p_ref, abs=1e-10)

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "scan.json"
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--format", "json", "--output", str(out_path)
        )
        assert code == 0
        assert "max_abs_error:" in out
        data = json.loads(out_path.read_text())
        assert len(data["samples"]) == 9
        assert data["max_abs_error"] <= 1e-10

    def test_negative_grid_bounds_accepted(self, capsys):
        # "-2.09e-5" must parse as a number, not an option
        code, out, _ = run_cli(
            capsys,
            "ramsey-scan", "--ions", "3", "--delta-min", "-2.09e-5", "--delta-max", "2.09e-5",
            "--points", "11", "--wait", "100000",
        )
        assert code == 0
        first = out.strip().splitlines()[1]
        assert first.startswith("-2.09")

    def test_zero_points_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "ramsey-scan", "--ions", "2", "--delta-min", "0", "--delta-max", "1",
            "--points", "0", "--wait", "1",
        )
        assert code == 2
        assert "--points" in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--wait", "nan", "wait_time"), ("--wait", "-1", "wait_time"), ("--delta-min", "nan", "detuning_grid")],
    )
    def test_bad_scan_input_usage_error(self, capsys, flag, value, field):
        args = list(self.ARGS)
        args[args.index(flag) + 1] = value
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert field in err
        assert out == ""

    @pytest.mark.parametrize(
        "flag, label", [("--rabi", "carrier"), ("--eta", "sideband")], ids=["rabi-0", "eta-0"]
    )
    def test_zero_rabi_frequency_gets_the_error_alone(self, capsys, flag, label):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *self.ARGS, flag, "0")
        assert code == 1
        assert err == f"error: {label} Rabi frequency must be positive, got 0.0\n"
        assert out == ""

    def test_non_finite_trap_usage_error(self, capsys):
        code, _, err = run_cli(capsys, *self.ARGS, "--nu", "inf")
        assert code == 2
        assert "trap_freq" in err

    def test_single_ion_ordinary_fringe(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ramsey-scan", "--ions", "1", "--delta-min", "0", "--delta-max", "6.28e-5",
            "--points", "5", "--wait", "100000",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            delta, wait, p_sim, _ = (float(c) for c in line.split(","))
            assert p_sim == pytest.approx(0.5 * (1 + math.cos(delta * wait)), abs=1e-10)


class TestRun:
    def test_canonical_program_matches_prepare(self, capsys, tmp_path):
        path = tmp_path / "prog.pseq"
        path.write_text(CANONICAL_2)
        code_run, out_run, _ = run_cli(capsys, "run", str(path))
        code_prep, out_prep, _ = run_cli(capsys, "prepare", "--ions", "2")
        assert code_run == 0 and code_prep == 0
        fid_run = [l for l in out_run.splitlines() if l.startswith("fidelity:")][0]
        fid_prep = [l for l in out_prep.splitlines() if l.startswith("fidelity:")][0]
        assert fid_run == fid_prep

    def test_parse_error_exits_2_with_position(self, capsys, tmp_path):
        path = tmp_path / "bad.pseq"
        path.write_text("ions N=2\ndisp_pi all n=0\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "2:1: error:" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.pseq"))
        assert code == 2
        assert "cannot read" in err

    def test_json_trace(self, capsys, tmp_path):
        path = tmp_path / "prog.pseq"
        path.write_text(CANONICAL_2)
        code, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["steps"]) == 5
        assert data["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert data["steps"][-1]["fock_populations"][0] == pytest.approx(1.0, abs=1e-12)

    def test_format_text_is_the_default(self, capsys, tmp_path):
        path = tmp_path / "prog.pseq"
        path.write_text(CANONICAL_2)
        assert run_cli(capsys, "run", str(path), "--format", "text") == run_cli(capsys, "run", str(path))

    def test_format_csv_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "prog.pseq"
        path.write_text(CANONICAL_2)
        code, out, err = run_cli(capsys, "run", str(path), "--format", "csv")
        assert code == 2
        assert "invalid choice: 'csv'" in err
        assert out == ""

    def test_warning_only_program_still_runs(self, capsys, tmp_path):
        path = tmp_path / "empty.pseq"
        path.write_text("# nothing\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 0
        assert "warning: no steps" in err


class TestNonFiniteClockOrPhase:
    """A step whose end time or a phase it forms overflows: exit 1, one named error, no output, no warning."""

    @staticmethod
    def assert_one_error(capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert caught == []
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ") and named in line and line.endswith("must be finite, got inf")
        return line

    @pytest.mark.parametrize(
        "steps, line, named",
        [
            # the first wait's nu * n_max * T overflows, before the clock does at the second
            (["wait T=1e308", "carrier_pi2 ion=1", "wait T=1e308", "carrier_pi2 ion=1"], 2, "trap phase"),
            (["wait T=1e308", "wait T=1e308", "jc_pi ion=2 n=0"], 2, "trap phase"),
            (["frame Rprime delta=1e300", "wait T=1e10"], 3, "detuning phase"),
            (["trap nu=1e-10", "wait T=1e308", "wait T=1e308"], 4, "clock"),
            (["trap nu=2 nmax=1", "wait T=8e307", "wait T=8e307", "jc_pi ion=2 n=0"], 5, "sideband phase"),
        ],
        ids=["carrier-after-long-waits", "sideband-after-long-waits", "detuned-wait", "clock", "sideband"],
    )
    def test_program_error_at_the_overflowing_step(self, capsys, tmp_path, steps, line, named):
        path = tmp_path / "overflow.pseq"
        path.write_text("\n".join(["ions N=2", *steps]) + "\n")
        error = self.assert_one_error(capsys, ["run", str(path)], named)
        assert error.startswith(f"error: {line}:1: ")

    def test_prepare_with_overflowing_trap_phase(self, capsys):
        self.assert_one_error(capsys, ["prepare", "--ions", "3", "--nu", "1e308", "--mode", "physical"], "trap phase")

    @pytest.mark.parametrize(
        "delta, wait, named",
        [("1", "1e308", "trap phase"), ("1e300", "1e10", "detuning phase")],
        ids=["trap-phase", "detuning-phase"],
    )
    def test_scan_that_cannot_run_gets_no_validity_warning(self, capsys, delta, wait, named):
        # 2 of the 3 detunings break the validity bound, but the wait cannot run at all
        argv = ["ramsey-scan", "--ions", "2", "--delta-min", f"-{delta}", "--delta-max", delta, "--points", "3"]
        self.assert_one_error(capsys, [*argv, "--wait", wait], named)


class TestVerify:
    def test_default_range_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("N=") == 8  # default range covers N=1..8
        assert "PASS" in out

    def test_tamper_hook_detected(self, capsys, monkeypatch):
        # a phase error on one step state must fail the trajectory check
        prepare = cli_module.prepare_max_entangled

        def tampered_step_3(*args, **kwargs):
            report = prepare(*args, **kwargs)
            report.step_states[2].blocks[1:] *= np.exp(0.01j)
            return report

        monkeypatch.setattr(cli_module, "prepare_max_entangled", tampered_step_3)
        code, out, _ = run_cli(capsys, "verify", "--ions-max", "3")
        assert code == 1
        assert "FAIL" in out

    def test_non_unitary_kernel_fails_the_oracle_check(self, capsys, monkeypatch):
        # a kernel that loses norm trips the norm guard inside the spot check: FAIL, not a crash
        original = cli_module.apply_pulse

        def shrinking_pulse(state, spec, **kwargs):
            state.amplitudes *= 0.9
            return original(state, spec, **kwargs)

        monkeypatch.setattr(cli_module, "apply_pulse", shrinking_pulse)
        code, out, _ = run_cli(capsys, "verify", "--ions-max", "1")
        assert code == 1
        assert "oracle check: max deviation inf" in out and "FAIL" in out

    def test_bad_range_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--ions-min", "4", "--ions-max", "2")
        assert code == 2

    def test_negative_seed_usage_error_before_the_sweep(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli_module, "prepare_max_entangled", no_sweep)
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert "--seed must be >= 0, got -1" in err
        assert out == ""


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("prepare", "--format", "json"),
            ("verify", "--output", "verify.txt"),
            ("prepare", "--seed", "3"),
            ("ramsey-scan", "--dump-state", "--delta-min", "0", "--delta-max", "1e-5", "--points", "2", "--wait", "1"),
        ],
        ids=["format-on-prepare", "output-on-verify", "seed-on-prepare", "dump-state-on-scan"],
    )
    def test_flag_a_subcommand_does_not_honour_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err and argv[1] in err
        assert out == "" and list(tmp_path.iterdir()) == []


class TestOutputNeedsDumpState:
    def test_prepare_output_without_dump_state_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "state.json"
        code, out, err = run_cli(capsys, "prepare", "--ions", "2", "--output", str(out_path))
        assert code == 2
        assert "--dump-state" in err
        assert out == "" and not out_path.exists()

    def test_run_text_output_without_dump_state_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "prog.pseq"
        path.write_text(CANONICAL_2)
        out_path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, "run", str(path), "--output", str(out_path))
        assert code == 2
        assert "--dump-state" in err
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("dump", [(), ("--dump-state",)], ids=["trace", "trace-and-state"])
    def test_run_json_output_writes_the_file(self, capsys, tmp_path, dump):
        path = tmp_path / "prog.pseq"
        path.write_text(CANONICAL_2)
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "run", str(path), "--format", "json", *dump, "--output", str(out_path))
        assert code == 0 and out == ""
        data = json.loads(out_path.read_text())
        assert len(data["steps"]) == 5
        assert ("final_state" in data) == bool(dump)


class TestMemoryBudget:
    def test_prepare_too_many_ions_exits_1_with_byte_estimate(self, capsys):
        code, _, err = run_cli(capsys, "prepare", "--ions", "40")
        assert code == 1
        assert f"need {5 * 2**40 * 16} B" in err and "physical memory" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("prepare", "--ions", "2000"),
            ("ramsey-scan", "--ions", "20000", "--delta-min", "0", "--delta-max", "1e-9", "--points", "3", "--wait", "1"),
        ],
        ids=["prepare-2000", "ramsey-scan-20000"],
    )
    def test_huge_ion_count_exits_1_without_a_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "physical memory" in err and "Traceback" not in err
        assert out == ""

    def test_verify_checks_the_largest_n_before_the_sweep(self, capsys, monkeypatch):
        # room for one N=6 state only: the final states of N=7 and 8 would not fit
        dim = hilbert.TrapParams(n_ions=6, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0).dim
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: dim * 16)
        code, out, err = run_cli(capsys, "verify", "--ions-max", "8")
        assert code == 1
        assert err.startswith("error: ") and "physical memory" in err
        assert out == ""

    def test_scan_memory_check_comes_before_the_validity_warning(self, capsys):
        # --delta-max 1e-6 is outside the validity window at N=20000, where the state does not fit either
        argv = ("ramsey-scan", "--ions", "20000", "--delta-min", "0", "--delta-max", "1e-6", "--points", "3", "--wait", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "physical memory" in err


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "explode")
        assert code == 2


class TestOneParser:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_main_matches_fresh_processes(self, capsys, tmp_path, monkeypatch):
        # flags set by one call (--format json, --omega0, --seed) must not leak into the next
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
        (tmp_path / "prog.pseq").write_text(CANONICAL_2)
        scan = list(TestRamseyScan.ARGS)
        calls = [
            ["run", "prog.pseq", "--format", "json"],
            ["run", "prog.pseq"],
            [*scan, "--format", "json"],
            scan,
            ["prepare", "--ions", "2", "--omega0", "2"],
            ["prepare", "--ions", "2"],
            ["verify", "--ions-max", "1", "--seed", "3"],
            ["verify", "--ions-max", "1"],
            ["prepare", "--ions", "2", "--output", "F"],
        ]
        parser = build_parser()
        in_process = [run_cli(capsys, *argv) for argv in calls]
        assert build_parser() is parser
        src = str(Path(ionpulse.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        driver = "import sys; from ionpulse.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv, got in zip(calls, in_process):
            fresh = subprocess.run([sys.executable, "-c", driver, *argv], capture_output=True, text=True, env=env)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _readme_usage() -> dict[str, str]:
    """Subcommand -> its lines in the fenced block under README's "Command line" heading."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    usage: dict[str, str] = {}
    command = None
    for line in block.strip().splitlines():
        if line.startswith("ionpulse "):
            command = line.split()[1]
        usage[command] = usage.get(command, "") + line + "\n"
    return usage


class TestReadmeUsage:
    def test_readme_shows_each_subcommands_flags(self):
        parser = build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        usage = _readme_usage()
        assert usage.keys() == commands.choices.keys()
        for name, sub in commands.choices.items():
            flags = {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")}
            assert set(re.findall(r"--[a-z0-9-]+", usage[name])) == flags - {"--help"}, name
            shown = re.search(r"--format ([a-z|]+)", usage[name])
            formats = sub._option_string_actions.get("--format")
            assert (shown.group(1).split("|") if shown else None) == (list(formats.choices) if formats else None), name
