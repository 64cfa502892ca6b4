"""The benchmark's tracer wraps ionpulse attributes by name: every one must exist and be restored.

Only ``python3 ionbench/run.py --trace 1`` installs the tracer, so a
renamed or removed attribute would otherwise break the traced benchmark
run alone.  This installs and restores it in-process, without running a
workload.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ionbench"))

import pytest  # noqa: E402
from tracing import Tracer  # noqa: E402

from ionpulse import cli, protocol, seqlang  # noqa: E402
from ionpulse.hilbert import StateVector, TrapParams  # noqa: E402

OWNERS = (cli, protocol, seqlang, StateVector)


def test_tracer_installs_and_restores_every_wrapped_attribute():
    before = [dict(vars(owner)) for owner in OWNERS]
    with Tracer().installed():
        during = [dict(vars(owner)) for owner in OWNERS]
    after = [dict(vars(owner)) for owner in OWNERS]
    assert during[2]["parse"] is not before[2]["parse"]
    assert during[3]["norm"] is not before[3]["norm"]
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)


def pulse_and_copy_spans(names):
    return sum(name.startswith("pulses.") for name in names), names.count("hilbert.copy")


def test_preparation_runs_through_the_traced_pulse_and_copy():
    # a runner that bypassed the wrapped names would zero the per-layer figures without failing
    with Tracer().installed() as tracer:
        protocol.prepare_max_entangled(TrapParams(n_ions=4, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0))
    assert pulse_and_copy_spans(tracer.names) == (5, 5)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_every_program_step_runs_through_the_traced_pulse(k):
    statements = ["carrier_pi2 ion=3", "wait T=0.5", "jc_pi ion=3 n=0", "disp_pi all n=1"]
    program, _ = seqlang.parse("ions N=3\n" + "".join(statements[i % 4] + "\n" for i in range(k)))
    with Tracer().installed() as tracer:
        seqlang.execute(program)
    assert pulse_and_copy_spans(tracer.names) == (k, 0)
