"""Command-line front end.

Subcommands: ``prepare`` (run the five-pulse preparation and report the
trajectory), ``ramsey-scan`` (sample the detuning fringe and emit
CSV/JSON), ``run`` (execute a .pseq program), and ``verify`` (check the
trajectory against its closed forms over a range of ion numbers, plus a
dense-matrix spot check).

Exit codes: 0 on success, 1 when a physics check fails, 2 on usage or
parse errors.  Only :func:`main` maps errors to exit codes: an
:class:`InputError` from a flag rule or a library check is a usage error
(2), a :class:`SimulationError` is ``error: ...`` and 1.  All numbers
printed here are produced by the simulation modules; output formats are
fixed so identical flags give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from .hilbert import Frame, InputError, SimulationError, StateVector, TrapParams, fock_populations, populations
from .pulses import PulseKind, PulseMode, PulseSpec, apply_pulse, dense_matrix
from .protocol import (
    RamseyConfig,
    best_ghz_fidelity,
    prepare_max_entangled,
    preparation_sequence,
    ramsey_scan,
    result_to_csv,
    result_to_json_dict,
    verify_trajectory,
)
from . import seqlang

FIDELITY_GATE = 1e-9
SCAN_GATE = 1e-9
RESIDUAL_GATE = 1e-10
ORACLE_GATE = 1e-12


def _add_trap_flags(sub: argparse.ArgumentParser, with_ions: bool = True) -> None:
    if with_ions:
        sub.add_argument("--ions", type=int, default=2, help="number of ions (default 2)")
    sub.add_argument("--nu", type=float, default=1.0, help="trap frequency (default 1)")
    sub.add_argument("--eta", type=float, default=0.1, help="Lamb-Dicke parameter (default 0.1)")
    sub.add_argument("--rabi", type=float, default=1.0, help="carrier Rabi frequency (default 1)")
    sub.add_argument("--nmax", type=int, default=4, help="Fock cutoff (default 4)")
    sub.add_argument("--mode", choices=["ideal", "physical"], default="ideal", help="pulse mode (default ideal)")


def _add_output_flags(sub: argparse.ArgumentParser, formats: tuple[str, ...] = (), dump_state: bool = False) -> None:
    """--output, plus --format (``formats``, the first the default) and --dump-state where honoured."""
    sub.add_argument("--output", metavar="PATH", help="write data to PATH instead of stdout")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0], help="data format")
    if dump_state:
        sub.add_argument("--dump-state", action="store_true", help="emit the final state as JSON")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call and reused by every later one; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="ionpulse",
        description="Simulate entangling pulse sequences on N trapped ions plus one vibrational mode.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_prep = commands.add_parser("prepare", help="run the five-pulse entangled-state preparation")
    _add_trap_flags(p_prep)
    _add_output_flags(p_prep, dump_state=True)
    p_prep.add_argument(
        "--omega0", type=float, default=None, help="transition frequency, reported lab-frame phase only"
    )

    p_scan = commands.add_parser("ramsey-scan", help="scan the Ramsey fringe over a detuning grid")
    _add_trap_flags(p_scan)
    _add_output_flags(p_scan, ("csv", "json"))
    p_scan.add_argument("--delta-min", type=float, required=True, help="first detuning of the grid")
    p_scan.add_argument("--delta-max", type=float, required=True, help="last detuning of the grid")
    p_scan.add_argument("--points", type=int, required=True, help="number of grid points")
    p_scan.add_argument("--wait", type=float, required=True, help="free evolution time T")
    if hasattr(p_scan, "_negative_number_matcher"):
        # stock argparse does not treat "-2e-5" as a number, only "-2" or "-2.0"
        p_scan._negative_number_matcher = re.compile(r"^-(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")

    p_run = commands.add_parser("run", help="execute a .pseq pulse program")
    p_run.add_argument("file", help="program file (.pseq)")
    _add_output_flags(p_run, ("text", "json"), dump_state=True)

    p_verify = commands.add_parser("verify", help="check trajectories against their closed forms")
    _add_trap_flags(p_verify, with_ions=False)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the randomized oracle spot check")
    p_verify.add_argument("--ions-min", type=int, default=1, help="first ion count (default 1)")
    p_verify.add_argument("--ions-max", type=int, default=8, help="last ion count (default 8)")
    return parser


def _params_from_args(args: argparse.Namespace, n_ions: int | None = None) -> TrapParams:
    return TrapParams(
        n_ions=n_ions if n_ions is not None else args.ions,
        trap_freq=args.nu,
        lamb_dicke=args.eta,
        base_rabi=args.rabi,
        fock_cutoff=args.nmax,
    )


def _write_data(text: str, args: argparse.Namespace) -> bool:
    """Write payload to --output or stdout; True when it went to a file."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        return True
    sys.stdout.write(text)
    return False


def _require_dump_for_output(args: argparse.Namespace) -> None:
    """--output only receives the --dump-state JSON in text mode, so it needs --dump-state."""
    if args.output and not args.dump_state:
        raise InputError("--output writes the --dump-state JSON; add --dump-state or drop --output")


def _print_step_table(trace: list[seqlang.StepTrace]) -> None:
    for t in trace:
        pops = ",".join(f"{p:.6f}" for p in t.fock_populations)
        print(f"step {t.step}  {t.kind:<12s} t={t.clock:.15g}  norm={t.norm:.12f}  fock=[{pops}]")


def cmd_prepare(args: argparse.Namespace) -> int:
    _require_dump_for_output(args)
    params = _params_from_args(args)
    mode = PulseMode(args.mode)
    report = prepare_max_entangled(params, mode, omega0=args.omega0)
    dump = report.final_state.dump_json() + "\n" if args.dump_state else None  # before any output: its memory check fails alone
    print(f"fidelity: {report.fidelity_vs_target:.12f}")
    if report.phi_schroedinger is not None:
        print(f"phi: {report.phi_schroedinger:.15g}")
    table = np.array([fock_populations(state) for state in report.step_states])
    _print_step_table(seqlang.step_traces(preparation_sequence(params, mode), report.pulse_times, table))
    if dump is not None:
        _write_data(dump, args)
    return 0 if report.fidelity_vs_target >= 1.0 - FIDELITY_GATE else 1


def cmd_ramsey_scan(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.points < 1:
        raise InputError(f"--points must be >= 1, got {args.points}")
    grid = np.linspace(args.delta_min, args.delta_max, args.points)
    config = RamseyConfig(
        params=params, wait_time=args.wait, detuning_grid=tuple(float(d) for d in grid), mode=PulseMode(args.mode)
    )
    result = ramsey_scan(config)
    if args.format == "json":
        payload = json.dumps(result_to_json_dict(result), check_circular=False) + "\n"
    else:
        payload = result_to_csv(result)
    to_file = _write_data(payload, args)
    summary = f"max_abs_error: {result.max_abs_error:.14e}"
    print(summary) if to_file else print(summary, file=sys.stderr)
    return 0 if result.max_abs_error <= SCAN_GATE else 1


def cmd_run(args: argparse.Namespace) -> int:
    if args.format == "text":
        _require_dump_for_output(args)
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    program, diagnostics = seqlang.parse(source)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    if program is None:
        return 2
    final, trace = seqlang.execute(program)
    fid, _ = best_ghz_fidelity(final)
    dump = final.dump_json() if args.dump_state else None  # before any output: its memory check fails alone
    if args.format == "json":
        # vars(t) is dataclasses.asdict(t) for this flat record, without asdict's deep copy
        text = json.dumps({"steps": [vars(t) for t in trace], "fidelity": fid}, check_circular=False)
        if dump is not None:  # the last key, spliced in as json.dumps would write it
            text = f'{text[:-1]}, "final_state": {dump}}}'
        _write_data(text + "\n", args)
        return 0
    print(f"fidelity: {fid:.12f}")
    _print_step_table(trace)
    if dump is not None:
        _write_data(dump + "\n", args)
    return 0


def _oracle_spot_check(seed: int) -> float:
    """Dense-matrix vs matrix-free application on a few random states.

    At N=5 the middle ions have bits on both sides, so a wrong bit layout
    or an ion skipped by the physical collective pulse's per-ion loop
    shows here.  The ideal specs check the all-pi swap and reversal on
    full-support states.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n_ions in (2, 5):
        params = TrapParams(n_ions=n_ions, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=3)
        specs = [PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=n_ions)]
        for mode in PulseMode:
            specs += [
                PulseSpec(PulseKind.JC_PI, target_ion=n_ions, target_n=0, mode=mode),
                PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=n_ions, target_n=1, mode=mode),
                PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, mode=mode),
            ]
        for spec in specs:
            matrix = dense_matrix(spec, params, t0=0.0)
            for _ in range(5):
                vec = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
                vec /= np.sqrt(populations(vec))
                state = StateVector(vec.copy(), params, Frame(), clock=0.0)
                try:
                    apply_pulse(state, spec, check_leakage=False)
                except SimulationError:  # a non-unitary kernel trips the norm guard: a mismatch, not a crash
                    return float("inf")
                worst = max(worst, float(np.max(np.abs(state.amplitudes - matrix @ vec))))
    return worst


def _verify_line(args: argparse.Namespace, n: int) -> tuple[str, bool]:
    """One ion count's ``verify`` line, and whether its residuals are within the gate."""
    report = prepare_max_entangled(_params_from_args(args, n_ions=n), PulseMode(args.mode))
    check = verify_trajectory(report, tolerance=RESIDUAL_GATE)
    residuals = " ".join(f"{r:.3e}" for r in check.residuals)
    status = "ok" if check.passed else "FAIL"
    return f"N={n}  residuals: {residuals}  max={max(check.residuals):.3e}  {status}", check.passed


def cmd_verify(args: argparse.Namespace) -> int:
    if args.ions_min < 1 or args.ions_max < args.ions_min:
        raise InputError("require 1 <= --ions-min <= --ions-max")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    last, ok = _verify_line(args, args.ions_max)  # the largest N first, so one that cannot run fails before any output
    for n in range(args.ions_min, args.ions_max):
        line, passed = _verify_line(args, n)
        print(line)
        ok = ok and passed
    print(last)
    worst = _oracle_spot_check(args.seed)
    oracle_ok = worst <= ORACLE_GATE
    print(f"oracle check: max deviation {worst:.3e} (seed {args.seed})  {'ok' if oracle_ok else 'FAIL'}")
    print(f"all residuals within {RESIDUAL_GATE:.1e}: {'PASS' if ok and oracle_ok else 'FAIL'}")
    return 0 if ok and oracle_ok else 1


def main(argv: list[str] | None = None) -> int:
    """Run one command line; the only place errors become exit codes."""
    parser = build_parser()
    handlers = {"prepare": cmd_prepare, "ramsey-scan": cmd_ramsey_scan, "run": cmd_run, "verify": cmd_verify}
    try:
        args = parser.parse_args(argv)
        try:
            return handlers[args.command](args)
        except InputError as exc:
            parser.error(str(exc))  # usage and message on stderr, then SystemExit(2)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
