"""Name and unit of every metric the benchmark reports.

``END_TO_END`` is what a run with ``--trace 0`` prints, ``PER_LAYER``
what a run with ``--trace 1`` prints.  ``run.py`` refuses to print a
result whose metric set or units differ from these tables or from
``BENCHMARK.json``, so the three cannot drift apart silently.

Imports nothing outside the standard library: ``run.py`` loads it
without NumPy or ionpulse.
"""

MODES = ("ideal", "physical")

#: Op times are in reference units ("ref"): wall time divided by the wall
#: time of a fixed reference kernel measured just before (see worker.py).
END_TO_END = {
    "ideal_p50": "ref",
    "physical_p50": "ref",
    "ideal_tail": "ref",
    "physical_tail": "ref",
    "ops_per_kref": "1/kref",
    "pass_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PULSE_KINDS = ("carrier_pi2", "jc_pi", "disp_pi", "disp_pi_all")
HILBERT_FNS = ("ground_state", "copy", "norm", "excited_population", "fock_populations", "to_dump")
PROTOCOL_FNS = ("prepare_max_entangled", "verify_trajectory", "ramsey_run", "ramsey_scan")

#: Every span name the tracer can record, in report order.
SPAN_NAMES = (
    [f"pulses.{kind}.{mode}" for kind in PULSE_KINDS for mode in MODES]
    + ["pulses.wait"]
    + [f"hilbert.{fn}" for fn in HILBERT_FNS]
    + [f"protocol.{fn}" for fn in PROTOCOL_FNS]
    + ["seqlang.parse", "seqlang.execute", "cli.main"]
)

#: Per-operation figures counted, not timed: they repeat exactly for a seed.
COUNTED = {
    "pulses.support_frac": "frac",
    "pulses.bytes_computed": "B",
    "hilbert.state_bytes": "B",
    "protocol.validity_warnings": "count",
    "protocol.scan_max_abs_error": "1",
    "protocol.fidelity_defect": "1",
    "seqlang.steps": "count",
    "seqlang.source_bytes": "B",
    "cli.output_bytes": "B",
}

TRACE_COST = {
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ideal_s": "s",
    "trace.overhead_physical_s": "s",
}

PER_LAYER = {
    **{f"{name}.{field}": unit for name in SPAN_NAMES for field, unit in (("calls", "count"), ("self_s", "s"))},
    **COUNTED,
    **TRACE_COST,
}
