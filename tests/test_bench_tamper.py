"""The benchmark's tamper checks: a wrong result must fail its op, never pass silently.

``python3 ionbench/selfcheck.py`` runs these checks beside slower ones; here
they run in-process, so a record that stopped showing a tampered step
state or final state fails the test suite too.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ionbench"))

import selfcheck  # noqa: E402


def test_tampered_results_fail_their_ops(tmp_path):
    selfcheck.FAILURES.clear()
    selfcheck.check_tampering(tmp_path)
    assert selfcheck.FAILURES == []
