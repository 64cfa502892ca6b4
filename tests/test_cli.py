import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ionpulse
from ionpulse import cli as cli_module
from ionpulse import hilbert, seqlang
from ionpulse.cli import build_parser, main
from ionpulse.protocol import best_ghz_fidelity
from ionpulse.pulses import apply_pulse, validate_pulse_spec
from conftest import count_calls

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
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("n_ions", [2, 3, 40, 1000, 100000])  # the whole array at N=40 would need 80 TiB
    def test_canonical_program_matches_prepare(self, capsys, tmp_path, n_ions, mode):
        suffix = "" if mode == "ideal" else " mode=physical"
        path = tmp_path / "prog.pseq"
        path.write_text(
            f"ions N={n_ions}\ncarrier_pi2 ion={n_ions}\njc_pi ion={n_ions} n=0{suffix}\ndisp_pi all n=1{suffix}\n"
            f"disp_pi ion={n_ions} n=1{suffix}\njc_pi ion={n_ions} n=0{suffix}\n"
        )
        ran = run_cli(capsys, "run", str(path))
        assert ran == run_cli(capsys, "prepare", "--ions", str(n_ions), "--mode", mode)
        assert ran[0] == 0 and ran[2] == ""

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

    def test_text_dump_state_follows_the_table(self, capsys, tmp_path):
        path = tmp_path / "prog.pseq"
        path.write_text(CANONICAL_2)
        _, table, _ = run_cli(capsys, "run", str(path))
        code, out, err = run_cli(capsys, "run", str(path), "--dump-state")
        final, _ = seqlang.execute(seqlang.parse(CANONICAL_2)[0])
        assert (code, err) == (0, "")
        assert out == table + final.dump_json() + "\n"

    def test_warning_only_program_still_runs(self, capsys, tmp_path):
        path = tmp_path / "empty.pseq"
        path.write_text("# nothing\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 0
        assert "warning: no steps" in err


def wide_program(seed, nmax):
    """A physical-mode program whose Fock window grows one level per sideband pulse, to levels 0 .. nmax - 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    lines = [f"ions N={n}", f"trap nu=1 eta=0.1 rabi=1 nmax={nmax}"]
    lines += [f"carrier_pi2 ion={ion}" for ion in range(1, n + 1)]
    for _ in range(nmax - 1):
        ion = int(rng.integers(1, n + 1))
        lines.append(f"jc_pi ion={ion} n={int(rng.integers(0, nmax))} mode=physical")
        lines.append(f"carrier_pi2 ion={int(rng.integers(1, n + 1))} phase={float(rng.uniform(0, 6))!r}")
        lines.append(f"disp_pi ion={ion} n={int(rng.integers(1, nmax + 1))} mode=physical")
        lines.append(f"wait T={float(rng.uniform(0.1, 10))!r}")
    return "\n".join(lines) + "\n"


class TestRunRecords:
    @pytest.mark.parametrize("nmax", range(8, 13))
    def test_json_steps_equal_records_of_each_step_state(self, capsys, tmp_path, nmax):
        # windows of 8 or more levels, where numpy's pairwise sum of a row regroups its terms
        source = wide_program(nmax, nmax)
        path = tmp_path / "wide.pseq"
        path.write_text(source)
        code, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
        program, _ = seqlang.parse(source)
        state = hilbert.ground_state(program.params, program.frame)
        expected = []
        for step, spec in enumerate(program.steps, start=1):
            apply_pulse(state, spec)
            levels = hilbert.fock_populations(state)
            expected.append(seqlang.StepTrace(step, spec.kind.value, state.clock, math.sqrt(levels.sum()), levels.tolist()))
        assert max(sum(p != 0 for p in t.fock_populations) for t in expected) >= 8
        fid, _ = best_ghz_fidelity(state)
        assert code == 0
        assert out == json.dumps({"steps": [vars(t) for t in expected], "fidelity": fid}) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_step_is_validated_once(self, capsys, tmp_path, fmt):
        path = tmp_path / "prog.pseq"
        path.write_text(wide_program(1, 8))
        n_steps = len(seqlang.parse(path.read_text())[0].steps)
        calls = count_calls(validate_pulse_spec, lambda: main(["run", str(path), "--format", fmt]))
        assert capsys.readouterr().out
        assert calls == n_steps


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


class TestCutoffBelowTwo:
    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "--ions", "3"],
            ["verify", "--ions-max", "3"],
            ["ramsey-scan", "--ions", "3", "--delta-min", "-1e-6", "--delta-max", "1e-6", "--points", "3", "--wait", "1"],
        ],
        ids=["prepare", "verify", "ramsey-scan"],
    )
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_usage_error_names_the_cutoff(self, capsys, argv, mode):
        # the preparation puts half the population at n = 1: refused before any work, not at its second pulse's guard
        code, out, err = run_cli(capsys, *argv, "--nmax", "1", "--mode", mode)
        assert code == 2 and out == ""
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert line.endswith("error: the preparation fills Fock level 1, so it needs n_max >= 2, got n_max=1")


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
    def test_prepare_beyond_the_whole_array_runs_in_the_sector(self, capsys):
        # 5 * 2**40 amplitudes would need 80 TiB; the run stores 6 * 2 * 40 * 5 sector amplitudes
        code, out, err = run_cli(capsys, "prepare", "--ions", "40")
        assert code == 0 and err == ""
        assert float(out.splitlines()[0].split()[1]) >= 1.0 - cli_module.FIDELITY_GATE

    @pytest.mark.parametrize(
        "argv",
        [
            ("prepare", "--ions", "2000", "--dump-state"),
            ("ramsey-scan", "--ions", "20000", "--delta-min", "0", "--delta-max", "1e-9", "--points", "3", "--wait", "1"),
            ("run", "PROGRAM", "--dump-state"),
        ],
        ids=["prepare-2000-dump-state", "ramsey-scan-20000", "run-1000-dump-state"],
    )
    def test_huge_ion_count_exits_1_without_a_traceback(self, capsys, tmp_path, argv):
        program = tmp_path / "prog.pseq"
        program.write_text("ions N=1000\ncarrier_pi2 ion=1000\njc_pi ion=1000 n=0\n")
        code, out, err = run_cli(capsys, *[str(program) if arg == "PROGRAM" else arg for arg in argv])
        assert code == 1
        assert err.startswith("error: ") and "physical memory" in err and len(err.splitlines()) == 1
        assert out == ""

    def test_prepare_dump_that_cannot_fit_fails_before_any_output(self, capsys, tmp_path):
        # the preparation runs in the sector; the dump's whole-array text is checked before the table prints
        out_path = tmp_path / "state.json"
        code, out, err = run_cli(capsys, "prepare", "--ions", "40", "--dump-state", "--output", str(out_path))
        assert code == 1
        assert err.startswith("error: ") and "dump need" in err and "Traceback" not in err
        assert out == "" and not out_path.exists()

    def test_run_dump_that_cannot_fit_fails_before_any_output(self, capsys, tmp_path, monkeypatch):
        # room for the program's whole state (640 B) but not for its dump; the text table would print first
        path = tmp_path / "prog.pseq"
        path.write_text("ions N=3\ncarrier_pi2 ion=3\n")
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: 1000)
        code, out, err = run_cli(capsys, "run", str(path), "--dump-state")
        assert code == 1
        assert err.startswith("error: ") and "dump need" in err
        assert out == ""

    def test_run_step_that_lifts_fails_at_its_position(self, capsys, tmp_path):
        # the sector runs the first step at N=40; the second needs the whole array, 80 TiB
        path = tmp_path / "prog.pseq"
        path.write_text("ions N=40\ncarrier_pi2 ion=40\n  carrier_pi2 ion=1\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: 3:3: error: ") and "physical memory" in err and len(err.splitlines()) == 1

    def test_verify_checks_the_largest_n_before_the_sweep(self, capsys, monkeypatch):
        # room for the N=6 run only, its start state and five step copies of 2N(nmax + 1) sector amplitudes: N=7 and 8 would not fit
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: 6 * 2 * 6 * 5 * 16)
        code, out, err = run_cli(capsys, "verify", "--ions-max", "8")
        assert code == 1
        assert err.startswith("error: ") and "physical memory" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("prepare", "--ions", str(10**9)),
            ("ramsey-scan", "--ions", str(10**9), "--delta-min", "0", "--delta-max", "0", "--points", "3", "--wait", "1"),
            ("verify", "--ions-max", str(10**9)),
            ("run", "PROGRAM"),
        ],
        ids=["prepare", "ramsey-scan", "verify", "run"],
    )
    def test_billion_ions_rejected_without_forming_the_state_size(self, capsys, tmp_path, argv):
        # 2**N alone is an int of N bits, 125 MB here: the check must not form it.  Every command starts
        # from the sector ground state, whose own check comes first.
        program = tmp_path / "huge.pseq"
        program.write_text(f"ions N={10**9}\ncarrier_pi2 ion=1\n")
        argv = [str(program) if arg == "PROGRAM" else arg for arg in argv]
        tracemalloc.start()
        try:
            got = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert got == 1
        assert peak < 2**20
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {10 * 10**9} amplitudes need {160 * 10**9} B ")

    def test_scan_memory_check_comes_before_the_validity_warning(self, capsys):
        # --delta-max 1e-6 is outside the validity window at N=20000, where the state does not fit either
        argv = ("ramsey-scan", "--ions", "20000", "--delta-min", "0", "--delta-max", "1e-6", "--points", "3", "--wait", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "physical memory" in err


class TestLargeN:
    """The preparation stores 2N(nmax + 1) sector amplitudes per state, so ``prepare`` and ``verify`` run far past 2**N."""

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("n_ions", [1000, 100000])
    def test_prepare_meets_every_printed_gate(self, capsys, n_ions, mode):
        code, out, err = run_cli(capsys, "prepare", "--ions", str(n_ions), "--mode", mode)
        assert code == 0 and err == ""
        first, *steps = out.splitlines()
        assert float(first.split()[1]) >= 1.0 - cli_module.FIDELITY_GATE
        assert len(steps) == 5 and all("norm=1.000000000000" in line for line in steps)

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_run_of_a_benchmark_shaped_program_stays_in_the_sector(self, capsys, tmp_path, mode):
        # steps on random ions that leave |g..g>|0> as it is, then the canonical five, as ionbench's pseq_run draws them
        n_ions, nmax, rng = 1000, 4, np.random.default_rng(29)
        suffix = "" if mode == "ideal" else " mode=physical"
        lines = [f"ions N={n_ions}", f"trap nu=1 eta=0.1 rabi=1 nmax={nmax}"]
        for kind, ion in zip(rng.integers(4, size=40), rng.integers(1, n_ions + 1, size=40)):
            lines.append(
                [
                    f"wait T={float(rng.uniform(0.1, 50.0))!r}",
                    f"jc_pi ion={ion} n={rng.integers(0, nmax)}{suffix}",
                    f"disp_pi ion={ion} n={rng.integers(1, nmax + 1)}{suffix}",
                    f"disp_pi all n={rng.integers(1, nmax + 1)}{suffix}",
                ][kind]
            )
        lines += [
            f"carrier_pi2 ion={n_ions}",
            f"jc_pi ion={n_ions} n=0{suffix}",
            f"disp_pi all n=1{suffix}",
            f"disp_pi ion={n_ions} n=1{suffix}",
            f"jc_pi ion={n_ions} n=0{suffix}",
        ]
        source = "\n".join(lines) + "\n"
        path = tmp_path / "prog.pseq"
        path.write_text(source)
        code, out, err = run_cli(capsys, "run", str(path), "--format", "json")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert len(data["steps"]) == 45
        assert data["fidelity"] >= 1.0 - cli_module.FIDELITY_GATE
        final, _ = seqlang.execute(seqlang.parse(source)[0])
        assert final._levels is not None

    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_verify_passes(self, capsys, mode):
        code, out, _ = run_cli(capsys, "verify", "--ions-min", "998", "--ions-max", "1000", "--mode", mode)
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[:3]] == ["N=998", "N=999", "N=1000"]  # ascending, the largest run first
        assert all(line.endswith("  ok") for line in lines[:4]) and lines[-1].endswith("PASS")


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
