"""The benchmark's tracer wraps ionpulse attributes by name: every one must exist and be restored.

Only ``python3 ionbench/run.py --trace 1`` installs the tracer, so a
renamed or removed attribute would otherwise break the traced benchmark
run alone.  This installs and restores it in-process, without running a
workload.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ionbench"))

from tracing import Tracer  # noqa: E402

from ionpulse import cli, protocol, seqlang  # noqa: E402
from ionpulse.hilbert import StateVector  # noqa: E402

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
