#!/usr/bin/env python3
"""Run all three workloads and print every metric by name with its unit.

    python3 ionbench/report.py [--seed 1] [--seconds 35] [--trace 0|1]

Each workload goes through ``run.py`` exactly as the benchmark command
runs it.  A workload whose run fails is reported and makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES, deadline_s

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(detail, result) of one ``run.py`` invocation; raises RuntimeError if it failed."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=deadline_s(seconds) + 30)
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {out.returncode}: {out.stderr.strip()[-500:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run every ionbench workload and print its metrics.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOAD_NAMES:
        try:
            detail, result = run_workload(workload, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(exc)
            status = 1
            continue
        print(
            f"{workload}  correct={result['correct']}  attempted={result['attempted']}  "
            f"failed={result['failed']}  failures={detail['failures_by_check']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:<14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
