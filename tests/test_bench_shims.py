"""Every import that ``src/ionpulse`` keeps only for the benchmark's tracer is one the tracer wraps.

A module attribute the code does not call carries ``# noqa: F401`` and
stays because ``ionbench/tracing.py`` wraps it by name.  Once the tracer
no longer wraps such a name, this test fails, and the import can go.
"""

import importlib
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ionbench"))

from tracing import Tracer  # noqa: E402

import ionpulse  # noqa: E402

PACKAGE = Path(ionpulse.__file__).resolve().parent
SHIM = re.compile(r"(\w+),?\s+# noqa: F401")


def shims():
    """(module, name) of every ``# noqa: F401`` import in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("ionpulse" if path.stem == "__init__" else f"ionpulse.{path.stem}")
        found += [(module, name) for name in SHIM.findall(path.read_text(encoding="utf-8"))]
    return found


def test_the_tracer_wraps_every_tracer_only_import():
    found = shims()
    names = {(module.__name__, name) for module, name in found}
    assert {("ionpulse.protocol", "free_evolve"), ("ionpulse.seqlang", "fock_populations"), ("ionpulse.seqlang", "apply_pulse")} <= names
    before = [getattr(module, name) for module, name in found]
    with Tracer().installed():
        during = [getattr(module, name) for module, name in found]
    unwrapped = [name for (module, name), old, new in zip(found, before, during) if new is old]
    assert unwrapped == []
