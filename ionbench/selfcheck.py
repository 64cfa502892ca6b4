#!/usr/bin/env python3
"""Check the benchmark itself.

    python3 ionbench/selfcheck.py

1. Every workload, untraced and traced, prints exactly the metrics that
   ``BENCHMARK.json`` names, each with its unit and a finite value.  No
   end-to-end value is 0.
2. Two traced runs with the same seed give identical counted figures.
3. Deliberately wrong results are counted as failures and do not pass
   silently.  The wrong results are a tampered step state, a tampered
   final state, a perturbed scan sample, a tampered ``.pseq`` final
   state (printed honestly, then hidden behind a false fidelity) and an
   op that raises.  Each untampered op passes, as a control.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ionpulse import cli, protocol, seqlang  # noqa: E402
from ionpulse.hilbert import SimulationError  # noqa: E402
from metrics import COUNTED, END_TO_END, PER_LAYER  # noqa: E402
from report import run_workload  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from tracing import Patches  # noqa: E402
from workloads import PrepN18, PseqRun, ScanN8, timed_op  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        FAILURES.append(label)


def check_result(label: str, result: dict, declared: dict, units: dict) -> None:
    metrics = result["metrics"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect({k: v["unit"] for k, v in metrics.items()} == declared == units, f"{label}: names and units")
    expect(all(math.isfinite(v["value"]) for v in metrics.values()), f"{label}: finite values")
    expect(result["correct"] is True and result["attempted"] >= 1, f"{label}: correct, attempted >= 1")


def check_outputs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {section: {m["name"]: m["unit"] for m in spec[section]} for section in ("end_to_end", "per_layer")}
    counted = [k for k in PER_LAYER if k in COUNTED or k.endswith(".calls")]
    for workload in WORKLOAD_NAMES:
        try:
            plain = run_workload(workload, 7, 1, 0)[1]
            first, second = (run_workload(workload, 7, 1, 1)[1] for _ in range(2))
        except RuntimeError as exc:
            expect(False, str(exc))
            continue
        check_result(f"{workload} --trace 0", plain, declared["end_to_end"], END_TO_END)
        expect(all(v["value"] != 0 for v in plain["metrics"].values()), f"{workload}: no end-to-end value is 0")
        check_result(f"{workload} --trace 1", first, declared["per_layer"], PER_LAYER)
        same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counted)
        expect(same, f"{workload}: counted figures repeat exactly for a seed")


def run_tampered(workload, op, patches: list[tuple[object, str, object]]):
    saved = Patches()
    for owner, attr, value in patches:
        saved.set(owner, attr, value)
    try:
        return timed_op(workload, op).verdict
    finally:
        saved.restore()


def check_tampering(workdir: Path) -> None:
    prep = PrepN18(3, workdir)
    op = prep.cycle()[0]
    expect(not timed_op(prep, op).verdict.failed, "prep_n18 control op passes")

    prepare = protocol.prepare_max_entangled

    def bad_step(*args):
        report = prepare(*args)
        report.step_states[2].blocks[1:] *= np.exp(0.01j)
        return report

    verdict = run_tampered(prep, op, [(protocol, "prepare_max_entangled", bad_step)])
    expect("residual" in verdict.missed, "prep_n18: tampered step state fails the residual gate")

    def bad_final(*args):
        report = prepare(*args)
        report.final_state.amplitudes[op.params.n_configs - 1] *= 0.5
        return report

    verdict = run_tampered(prep, op, [(protocol, "prepare_max_entangled", bad_final)])
    expect("fidelity" in verdict.inconsistent and "fock_ground" in verdict.missed,
           "prep_n18: tampered final state contradicts the reported fidelity")

    scan = ScanN8(3, workdir)
    op = next(o for o in scan.cycle() if o.wait_time == 1e5)
    expect(not timed_op(scan, op).verdict.failed, "scan_n8 control op (T=1e5) passes")
    ramsey_scan = protocol.ramsey_scan

    def bad_sample(config):
        result = ramsey_scan(config)
        sample = result.samples[7]
        result.samples[7] = dataclasses.replace(sample, p_simulated=sample.p_simulated + 1e-6)
        return result

    verdict = run_tampered(scan, op, [(protocol, "ramsey_scan", bad_sample)])
    expect("max_abs_error" in verdict.inconsistent, "scan_n8: perturbed sample contradicts max_abs_error")

    def raises(config):
        raise SimulationError("injected")

    verdict = run_tampered(scan, op, [(protocol, "ramsey_scan", raises)])
    expect(verdict.missed == ["raised:SimulationError"], "scan_n8: an op that raises is counted failed")

    pseq = PseqRun(3, workdir)
    op = pseq.cycle()[1]
    expect(not timed_op(pseq, op).verdict.failed, "pseq_run control op passes")
    execute = seqlang.execute

    def bad_state(program):
        state, trace = execute(program)
        nc = program.params.n_configs
        state.amplitudes[nc], state.amplitudes[nc - 1] = state.amplitudes[nc - 1], 0.0
        return state, trace

    verdict = run_tampered(pseq, op, [(seqlang, "execute", bad_state)])
    expect("fidelity" in verdict.missed, "pseq_run: tampered final state misses the known answer")
    verdict = run_tampered(
        pseq, op, [(seqlang, "execute", bad_state), (cli, "best_ghz_fidelity", lambda state: (1.0, 0.0))]
    )
    expect("dump_fidelity" in verdict.inconsistent, "pseq_run: a false printed fidelity contradicts the dump")


def main() -> int:
    check_outputs()
    out_dir = ROOT / "ionbench" / ".out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        check_tampering(Path(workdir))
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
