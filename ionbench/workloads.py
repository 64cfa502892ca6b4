"""The three workloads: seeded inputs, the operation each one times, and its checks.

Every workload alternates ideal and physical mode between operations and
hands ionpulse only inputs generated from the seed.  ``cycle()`` returns
the next few operations; the loop always runs whole cycles, so the mix of
modes (and, for ``scan_n8``, of wait times) is the same in every run.

An operation *fails* when it raises or when its result misses a gate: the
gates the CLI enforces (imported from ``ionpulse.cli``, never retyped),
plus the Fock-ground check and the ``.pseq`` known answer this benchmark
adds.  Separately, a result is *inconsistent* when a value the program
reports disagrees with the benchmark's own recomputation from the same
output.  That is a silently wrong answer: it fails the operation and
makes the whole run incorrect.

Each workload also names a reference kernel shaped like its own work,
which never calls ionpulse; the worker expresses op times in units of it
(see worker.py).

The workloads call into ionpulse through module attributes
(``protocol.ramsey_scan``, ``cli.main``) so that the traced run, which
replaces those attributes, sees every call.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ionpulse import cli, protocol
from ionpulse.cli import FIDELITY_GATE, RESIDUAL_GATE, SCAN_GATE
from ionpulse.hilbert import TrapParams
from ionpulse.pulses import PulseMode

from metrics import MODES

#: Agreement required between a value ionpulse reports and the benchmark's
#: recomputation of it from the same output (both are a few float operations).
RECOMPUTE_TOL = 1e-12


@dataclass
class Verdict:
    missed: list[str] = field(default_factory=list)  # gates the result missed
    inconsistent: list[str] = field(default_factory=list)  # reported values the recomputation contradicts

    @property
    def failed(self) -> bool:
        return bool(self.missed or self.inconsistent)


@dataclass
class Record:
    """One timed operation: its mode, wall time, verdict and counted figures."""

    mode: str
    seconds: float
    verdict: Verdict
    stats: dict
    reference_s: float = 0.0  # reference kernel time just before the op (end-to-end runs only)


def timed_op(workload, op, run=None) -> Record:
    """Time ``run(op)`` (default ``workload.run``), then check its output untimed.

    ``workload.check`` returns the verdict and the operation's counted
    figures (named as in ``metrics.COUNTED``).  An operation that raises
    is a counted failure, never the end of the run.
    """
    run = run or workload.run
    start = time.perf_counter()
    try:
        out = run(op)
    except Exception as exc:
        return Record(op.mode, time.perf_counter() - start, Verdict(missed=[f"raised:{type(exc).__name__}"]), {})
    seconds = time.perf_counter() - start
    try:
        verdict, stats = workload.check(op, out)
    except Exception as exc:  # output too malformed to check is a wrong answer
        return Record(op.mode, seconds, Verdict(inconsistent=[f"check_raised:{type(exc).__name__}"]), {})
    return Record(op.mode, seconds, verdict, stats)


def python_reference() -> None:
    """Fixed work shaped like many small calls: Python bytecode, small NumPy arrays, a dict and JSON."""
    total = 0
    for i in range(3000):
        total += i
    a = np.arange(2048, dtype=np.complex128)
    for _ in range(20):
        a = a * 1.0001
        a[::2] += 1
    json.dumps({str(i): i for i in range(200)})


class MemoryReference:
    """Fixed work shaped like large-array kernels: make ``size`` amplitudes, one read-write pass, free them.

    The array lives only inside the call, so it adds nothing to the
    resident memory the workload's own ops reach.
    """

    def __init__(self, size: int) -> None:
        self.size = size

    def __call__(self) -> None:
        buffer = np.ones(self.size, dtype=np.complex128)
        np.negative(buffer, out=buffer)


def _ghz_fidelity(ground_level: np.ndarray) -> float:
    """Fidelity with (|g..g> + e^{i phi}|e..e>)|0>/sqrt(2), best phi, from the n = 0 amplitudes."""
    return 0.5 * (abs(ground_level[0]) + abs(ground_level[-1])) ** 2


# --------------------------------------------------------------------------
# prep_n18
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepOp:
    mode: str
    params: TrapParams


class PrepN18:
    """Five-pulse preparation plus trajectory check at N=18 (5 * 2**18 amplitudes, 21 MB)."""

    name = "prep_n18"
    n_ions = 18
    fock_cutoff = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.reference = MemoryReference((self.fock_cutoff + 1) << self.n_ions)

    def cycle(self) -> list[PrepOp]:
        ops = []
        for mode in MODES:
            nu, eta, rabi = self.rng.uniform((0.5, 0.05, 0.5), (2.0, 0.2, 2.0))
            params = TrapParams(self.n_ions, float(nu), float(eta), float(rabi), self.fock_cutoff)
            ops.append(PrepOp(mode, params))
        return ops

    def run(self, op: PrepOp):
        report = protocol.prepare_max_entangled(op.params, PulseMode(op.mode))
        return report, protocol.verify_trajectory(report, tolerance=RESIDUAL_GATE)

    def check(self, op: PrepOp, out) -> tuple[Verdict, dict]:
        report, trajectory = out
        verdict = Verdict()
        if not report.fidelity_vs_target >= 1.0 - FIDELITY_GATE:
            verdict.missed.append("fidelity")
        if len(trajectory.residuals) != 5 or not max(trajectory.residuals) <= RESIDUAL_GATE:
            verdict.missed.append("residual")
        ground = report.final_state.amplitudes[: op.params.n_configs]
        if not np.vdot(ground, ground).real >= 1.0 - FIDELITY_GATE:
            verdict.missed.append("fock_ground")
        if not abs(_ghz_fidelity(ground) - report.fidelity_vs_target) <= RECOMPUTE_TOL:
            verdict.inconsistent.append("fidelity")
        return verdict, {"protocol.fidelity_defect": 1.0 - report.fidelity_vs_target}


# --------------------------------------------------------------------------
# scan_n8
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanOp:
    mode: str
    wait_time: float
    grid: tuple[float, ...]


def fringe(n_ions: int, delta: float, wait_time: float) -> float:
    """The paper's fringe P = (1 - (-1)^N cos(N delta T)) / 2."""
    return 0.5 * (1.0 - (-1.0) ** n_ions * math.cos(n_ions * delta * wait_time))


class ScanN8:
    """K=200 Ramsey scans at N=8 (dim 1280), cycling over four wait times.

    The grid is delta = x / (N T) with x in [-2 pi, 2 pi), so |delta| stays
    under the validity bound at every T and no warning fires.  The waits
    sit at least ~35x from the 1e-9 scan gate on either side: today the
    two long ones miss it (ROADMAP item 4), and those misses are counted.
    """

    name = "scan_n8"
    points = 200
    waits = (1e5, 1e6, 1e9, 1e11)
    params = TrapParams(n_ions=8, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=4)
    reference = staticmethod(python_reference)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        offset = self.rng.random()
        self.x = -2.0 * math.pi + 4.0 * math.pi * (np.arange(self.points) + offset) / self.points

    def cycle(self) -> list[ScanOp]:
        orders = [self.rng.permutation(self.waits) for _ in MODES]
        scale = self.params.n_ions
        return [
            ScanOp(mode, float(wait), tuple(float(x) for x in self.x / (scale * wait)))
            for waits in zip(*orders)
            for mode, wait in zip(MODES, waits)
        ]

    def run(self, op: ScanOp):
        config = protocol.RamseyConfig(
            params=self.params, wait_time=op.wait_time, detuning_grid=op.grid, mode=PulseMode(op.mode)
        )
        return protocol.ramsey_scan(config)

    def check(self, op: ScanOp, result) -> tuple[Verdict, dict]:
        verdict = Verdict()
        stats = {"protocol.scan_max_abs_error": result.max_abs_error}
        if not result.max_abs_error <= SCAN_GATE:
            verdict.missed.append("scan")
        samples = result.samples
        if [(s.delta, s.wait_time) for s in samples] != [(d, op.wait_time) for d in op.grid]:
            verdict.inconsistent.append("samples")
            return verdict, stats
        if not all(0.0 <= s.p_simulated <= 1.0 + RECOMPUTE_TOL for s in samples):
            verdict.inconsistent.append("probability")
        n = self.params.n_ions
        error = max(abs(s.p_simulated - fringe(n, s.delta, s.wait_time)) for s in samples)
        if not abs(error - result.max_abs_error) <= RECOMPUTE_TOL:
            verdict.inconsistent.append("max_abs_error")
        return verdict, stats


# --------------------------------------------------------------------------
# pseq_run
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PseqOp:
    mode: str
    path: Path
    n_ions: int
    fock_cutoff: int
    n_steps: int
    source_bytes: int


class PseqRun:
    """In-process ``ionpulse run FILE --format json --dump-state`` on seeded programs.

    Each program (N in 4..10, nmax in 2..6, one mode) opens with 10-60
    steps that leave |g..g>|0> exactly unchanged and ends with the
    canonical preparation, so its known answer is a printed fidelity of
    at least 1 - FIDELITY_GATE.  Stdout is captured in memory; the file is
    written before the timed call and read back from the page cache.
    """

    name = "pseq_run"
    shapes = [(n, nmax) for n in range(4, 11) for nmax in range(2, 7)]
    reference = staticmethod(python_reference)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.index = 0

    def cycle(self) -> list[PseqOp]:
        """Every (N, nmax) shape once per mode, in seeded order.

        Op cost grows steeply with the shape, so every run covers the
        shapes evenly; a tail set by a seed's luck in drawing large
        shapes would spread from run to run.
        """
        order = self.rng.permutation(len(self.shapes))
        pairs = [(mode, self.shapes[i]) for i in order for mode in MODES]
        return [self._program(slot, mode, *shape) for slot, (mode, shape) in enumerate(pairs)]

    def _program(self, slot: int, mode: str, n: int, nmax: int) -> PseqOp:
        rng = self.rng
        suffix = "" if mode == "ideal" else " mode=physical"
        lines = [f"# seeded program {self.index}", f"ions N={n}", f"trap nu=1 eta=0.1 rabi=1 nmax={nmax}"]
        n_prefix = int(rng.integers(10, 61))
        for _ in range(n_prefix):
            kind = int(rng.integers(4))
            ion = int(rng.integers(1, n + 1))
            if kind == 0:
                lines.append(f"wait T={float(rng.uniform(0.1, 50.0))!r}")
            elif kind == 1:
                lines.append(f"jc_pi ion={ion} n={int(rng.integers(0, nmax))}{suffix}")
            elif kind == 2:
                lines.append(f"disp_pi ion={ion} n={int(rng.integers(1, nmax + 1))}{suffix}")
            else:
                lines.append(f"disp_pi all n={int(rng.integers(1, nmax + 1))}{suffix}")
        lines += [
            f"carrier_pi2 ion={n}",
            f"jc_pi ion={n} n=0{suffix}",
            f"disp_pi all n=1{suffix}",
            f"disp_pi ion={n} n=1{suffix}",
            f"jc_pi ion={n} n=0{suffix}",
        ]
        source = "\n".join(lines) + "\n"
        path = self.workdir / f"{slot}.pseq"
        path.write_text(source, encoding="utf-8")
        self.index += 1
        return PseqOp(mode, path, n, nmax, n_prefix + 5, len(source.encode()))

    def run(self, op: PseqOp):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["run", str(op.path), "--format", "json", "--dump-state"])
        return code, out.getvalue()

    def check(self, op: PseqOp, out) -> tuple[Verdict, dict]:
        code, text = out
        verdict = Verdict()
        stats = {
            "seqlang.steps": op.n_steps,
            "seqlang.source_bytes": op.source_bytes,
            "cli.output_bytes": len(text.encode()),
        }
        if code != 0:
            verdict.missed.append("exit")
            return verdict, stats
        data = json.loads(text)
        fid = data["fidelity"]
        stats["protocol.fidelity_defect"] = 1.0 - fid
        if not fid >= 1.0 - FIDELITY_GATE:
            verdict.missed.append("fidelity")
        steps = data["steps"]
        if len(steps) != op.n_steps:
            verdict.inconsistent.append("steps")
        elif not steps[-1]["fock_populations"][0] >= 1.0 - FIDELITY_GATE:
            verdict.missed.append("fock_ground")
        dump = data["final_state"]
        n_configs = 1 << op.n_ions
        amplitudes = dump["amplitudes"]
        if (dump["n_ions"], dump["n_max"], len(amplitudes)) != (
            op.n_ions,
            op.fock_cutoff,
            n_configs * (op.fock_cutoff + 1),
        ):
            verdict.inconsistent.append("dump_shape")
            return verdict, stats
        ground = np.array([complex(*amplitudes[0]), complex(*amplitudes[n_configs - 1])])
        if not abs(_ghz_fidelity(ground) - fid) <= RECOMPUTE_TOL:
            verdict.inconsistent.append("dump_fidelity")
        return verdict, stats


WORKLOADS = {cls.name: cls for cls in (PrepN18, ScanN8, PseqRun)}
