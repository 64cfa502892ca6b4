"""One workload in one fresh process: set up, measure, print the result.

Started by ``run.py``; not meant to be run by hand.  It prints two lines
on stdout, each a tag and a JSON object:

    READY {...environment...}   after import, input generation and one
                                untimed warm-up operation
    RESULT {...}                after the measured loop

The loop is closed with a single client and no threads: the next
operation starts only after the previous one has ended and been checked.
With ``--setup-only`` the worker exits after READY, so that ``run.py`` can
time set-up in several fresh processes.

With ``--trace 1`` the worker first runs one traced cycle with counting
on, which gives the counted figures.  Then, for ``--seconds``, it runs
each new cycle twice, untraced and traced, in alternating order; the
traced runs give the self times.  Tracing overhead per mode is the traced
median minus the untraced median, both over the same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ionpulse  # noqa: E402
from metrics import COUNTED, MODES, PER_LAYER, SPAN_NAMES  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, timed_op  # noqa: E402

#: Fewest operations per mode in an untraced run: the tail needs ten beyond it.
MIN_PER_MODE = 11
#: Reference times (one per op, the latest ones) whose median normalises an op.
REF_WINDOW = 5
OUT_DIR = ROOT / "ionbench" / ".out"


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "ionpulse": str(Path(ionpulse.__file__).parent.relative_to(ROOT)),
    }


def reference_s(workload) -> float:
    """Wall time of the workload's reference kernel, run a second time so it starts with warm caches."""
    workload.reference()
    start = time.perf_counter()
    workload.reference()
    return time.perf_counter() - start


def run_cycles(workload, seconds: float, records: list) -> list:
    """Run whole cycles until ``seconds`` have passed and each mode has ``MIN_PER_MODE`` ops.

    The reference kernel is timed just before each op, outside the op's own timing.
    """
    start = time.perf_counter()
    first = len(records)
    while True:
        for op in workload.cycle():
            reference = reference_s(workload)
            record = timed_op(workload, op)
            record.reference_s = reference
            records.append(record)
        mine = records[first:]
        if time.perf_counter() - start >= seconds and all(
            sum(r.mode == mode for r in mine) >= MIN_PER_MODE for mode in MODES
        ):
            return mine


def by_mode(records, values) -> dict[str, list[float]]:
    return {mode: sorted(v for r, v in zip(records, values) if r.mode == mode) for mode in MODES}


def tail(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of sorted ``xs`` with ten samples beyond it."""
    rank = len(xs) - 11
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def end_to_end(records, detail: dict) -> dict:
    """Op times in reference units: each op's wall time over the median of the last
    ``REF_WINDOW`` reference times.  Slow phases of a shared host stretch both, so
    the ratio keeps what the program does; the wall times go on the detail line."""
    refs = [r.reference_s for r in records]
    ratios = [
        r.seconds / statistics.median(refs[max(0, i + 1 - REF_WINDOW) : i + 1]) for i, r in enumerate(records)
    ]
    metrics = {}
    normalised, wall = by_mode(records, ratios), by_mode(records, [r.seconds for r in records])
    for mode in MODES:
        metrics[f"{mode}_p50"] = statistics.median(normalised[mode])
        metrics[f"{mode}_tail"], percentile = tail(normalised[mode])
        detail[f"{mode}_tail"] = {"percentile": percentile, "samples": len(normalised[mode])}
        detail[f"{mode}_wall_s"] = {"p50": statistics.median(wall[mode]), "tail": tail(wall[mode])[0]}
    metrics["ops_per_kref"] = 1000.0 * len(records) / sum(ratios)
    metrics["pass_frac"] = sum(not r.verdict.failed for r in records) / len(records)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["ops_per_s_wall"] = len(records) / sum(r.seconds for r in records)
    detail["reference_s_p50"] = statistics.median(refs)
    return metrics


def per_layer(workload, seconds: float, records: list, spans_path: Path, detail: dict) -> dict:
    tracer = Tracer()
    traced_run = tracer.operation(workload.run)
    first = len(records)
    with tracer.installed(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.counting = True
        records += [timed_op(workload, op, traced_run) for op in workload.cycle()]
        tracer.counting = False
    window = records[first:]
    counted_ops = tracer.n_ops

    # Each cycle runs untraced and traced, so both see the same ops and the same
    # machine.  Which goes first alternates, because a second run of the same ops is faster.
    untraced, traced = [], []
    cycles = 0
    start = time.perf_counter()
    while not (cycles and cycles % 2 == 0 and time.perf_counter() - start >= seconds):
        ops = workload.cycle()
        for traced_pass in (cycles % 2 == 1, cycles % 2 == 0):
            if traced_pass:
                with tracer.installed():
                    traced += [timed_op(workload, op, traced_run) for op in ops]
            else:
                untraced += [timed_op(workload, op) for op in ops]
        cycles += 1
    records += untraced + traced
    tracer.write(spans_path)

    metrics = {name: 0.0 for name in PER_LAYER}
    counted_spans = tracer.per_op(0, counted_ops)
    timed_spans = tracer.per_op(counted_ops, tracer.n_ops)
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = counted_spans.get(name, (0.0, 0.0))[0]
        metrics[f"{name}.self_s"] = timed_spans.get(name, (0.0, 0.0))[1]
    n = len(window)
    pulses = tracer.counts["pulses"]
    metrics["pulses.support_frac"] = tracer.counts["support"] / pulses if pulses else 0.0
    metrics["pulses.bytes_computed"] = tracer.counts["pulse_bytes"] / n
    metrics["hilbert.state_bytes"] = tracer.counts["state_bytes"] / n
    metrics["protocol.validity_warnings"] = sum(issubclass(w.category, UserWarning) for w in caught) / n
    for name in COUNTED:
        values = [r.stats[name] for r in window if name in r.stats]
        if values:
            metrics[name] = sum(values) / n

    metrics["trace.op_s"] = sum(r.seconds for r in traced) / len(traced)
    metrics["trace.unattributed_s"] = timed_spans["op"][1]
    plain = by_mode(untraced, [r.seconds for r in untraced])
    traced_times = by_mode(traced, [r.seconds for r in traced])
    for mode in MODES:
        metrics[f"trace.overhead_{mode}_s"] = statistics.median(traced_times[mode]) - statistics.median(plain[mode])
    detail["trace"] = {
        "untraced_ops": len(untraced),
        "counted_ops": n,
        "timed_traced_ops": len(traced),
        "untraced_op_s_mean": sum(r.seconds for r in untraced) / len(untraced),
        "layer_self_s": sum(metrics[f"{name}.self_s"] for name in SPAN_NAMES),
        "spans": len(tracer.names),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counted_figures": sorted(COUNTED),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        timed_op(workload, workload.cycle()[0])
        emit("READY", environment())
        if args.setup_only:
            return 0
        records: list = []
        detail: dict = {}
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}.csv"
            metrics = per_layer(workload, args.seconds, records, spans_path, detail)
        else:
            metrics = end_to_end(run_cycles(workload, args.seconds, records), detail)
        failures: dict[str, int] = {}
        for record in records:
            for reason in record.verdict.missed + record.verdict.inconsistent:
                failures[reason] = failures.get(reason, 0) + 1
        detail["failures_by_check"] = failures
        emit(
            "RESULT",
            {
                "correct": not any(r.verdict.inconsistent for r in records),
                "attempted": len(records),
                "failed": sum(r.verdict.failed for r in records),
                "metrics": metrics,
                "detail": detail,
            },
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
