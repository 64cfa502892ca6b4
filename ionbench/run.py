#!/usr/bin/env python3
"""Run one workload of the ionpulse benchmark and print its metrics.

    python3 ionbench/run.py --workload prep_n18 --seed 1 --seconds 35 --trace 0

Run from anywhere; the checkout root is the parent of this directory and
ionpulse is imported from its ``src/``.  Every workload runs in fresh
worker processes (``worker.py``), one at a time, each with one BLAS/OpenMP
thread.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).

With ``--trace 0`` set-up is timed in ``SETUP_BEFORE`` fresh processes
before the measured loop, in the one that runs it and in ``SETUP_AFTER``
after it, each from just before the process is started until it reports
ready.  The shortest is reported as ``setup_s``: the host's slow phases
only ever add time, and the samples span the whole run, so the minimum
is the figure that repeats.

The last line of stdout is the result object; the line before it holds
the details (environment, tail percentiles and sample counts, failures by
check, set-up samples).  On any error the script prints no result and
exits with a non-zero code, for instance when the checkout holds no
``src/ionpulse``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("prep_n18", "scan_n8", "pseq_run")
SETUP_BEFORE = 6
SETUP_AFTER = 6
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def deadline_s(seconds: float) -> float:
    """How long a whole run may take, every worker included.

    The loop ends only with a whole cycle and with enough ops per mode,
    and set-up runs in several processes, hence the margin.
    """
    return 2.0 * seconds + 100.0


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def check_declared(units: dict[str, str], section: str) -> None:
    """The metrics this code computes must be exactly those BENCHMARK.json declares."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {m["name"]: m["unit"] for m in spec[section]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read {section} from BENCHMARK.json: {exc}") from exc
    if declared != units:
        diff = sorted(set(declared.items()) ^ set(units.items()))
        raise BenchError(f"BENCHMARK.json {section} differs from metrics.py: {diff}")


def read_message(proc: subprocess.Popen, buffer: bytearray, tag: str, deadline: float) -> dict:
    """Read the worker's next stdout line, which must be ``<tag> <json>``."""
    fd = proc.stdout.fileno()
    while b"\n" not in buffer:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"worker sent no {tag} before the deadline")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"worker exited with code {proc.wait()} before {tag}")
            buffer += chunk
    line, _, rest = bytes(buffer).partition(b"\n")
    buffer[:] = rest
    got, _, payload = line.decode().partition(" ")
    if got != tag:
        raise BenchError(f"expected {tag} from the worker, got {line[:200]!r}")
    try:
        return json.loads(payload)
    except ValueError as exc:
        raise BenchError(f"malformed {tag} from the worker: {exc}") from exc


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, dict, dict | None]:
    """Start one worker; return its set-up time, READY payload and RESULT payload."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    buffer = bytearray()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env={**os.environ, **THREAD_ENV})
    try:
        ready = read_message(proc, buffer, "READY", deadline)
        setup_s = time.perf_counter() - start
        result = None if setup_only else read_message(proc, buffer, "RESULT", deadline)
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return setup_s, ready, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the ionpulse benchmark.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + deadline_s(args.seconds)
    try:
        if not (ROOT / "src" / "ionpulse" / "__init__.py").is_file():
            raise BenchError(f"no ionpulse sources under {ROOT / 'src'}")
        units = PER_LAYER if args.trace else END_TO_END
        check_declared(units, "per_layer" if args.trace else "end_to_end")

        before, after = (0, 0) if args.trace else (SETUP_BEFORE, SETUP_AFTER)
        setups = [run_worker(args, deadline, setup_only=True)[0] for _ in range(before)]
        setup_s, env, result = run_worker(args, deadline, setup_only=False)
        setups.append(setup_s)
        setups += [run_worker(args, deadline, setup_only=True)[0] for _ in range(after)]
        values = dict(result["metrics"])
        if not args.trace:
            values["setup_s"] = min(setups)
        if set(values) != set(units):
            raise BenchError(f"worker metrics differ from metrics.py: {sorted(set(values) ^ set(units))}")
    except BenchError as exc:
        print(f"ionbench: {exc}", file=sys.stderr)
        return 1

    env.update(
        seed=args.seed,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        cpu_model=cpu_model(),
        threads=THREAD_ENV,
    )
    detail = {"workload": args.workload, "environment": env, **result["detail"]}
    if not args.trace:
        detail["setup_s_samples"] = setups
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
