"""The per-step functions read no enum member through its class and build no mode from text.

On Python 3.10 and 3.11 ``PulseKind.X`` runs ``EnumType``'s Python-level
``__getattr__``, ``PulseMode(word)`` its ``__call__`` and ``member.value`` a
descriptor, each a few hundred ns on every step a run takes.  These
functions read members through names bound once at import, and text
through maps; this test reads their source, so it holds on every
interpreter.
"""

import ast
from pathlib import Path

import pytest

import ionpulse

HOT = {
    "pulses": ["validate_pulse_spec", "pulse_duration", "_rabi_rate", "_check_step_phases", "_angle_table", "_step_rows"],
    "protocol": ["_run_rows"],
    "seqlang": ["step_traces", "_Parser._arguments"],
}
ENUMS = {"PulseKind", "PulseMode"}


def functions(module: str) -> dict[str, ast.FunctionDef]:
    """The module's functions and methods by qualified name."""
    tree = ast.parse((Path(ionpulse.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)})
    return found


def enum_machinery(function: ast.FunctionDef) -> list[str]:
    """Each class-qualified member read, ``PulseMode(...)`` call and ``.value`` read in the function, with its line."""
    bad = []
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ENUMS:
            bad.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "PulseMode":
            bad.append(f"{node.lineno}: PulseMode(...)")
        elif isinstance(node, ast.Attribute) and node.attr == "value":
            bad.append(f"{node.lineno}: .value")
    return bad


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOT.items() for n in names])
def test_per_step_function_reads_members_through_bound_names(module, name):
    function = functions(module).get(name)
    assert function is not None, f"{module}.{name} is gone: update the list of per-step functions"
    assert enum_machinery(function) == []
