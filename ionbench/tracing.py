"""Spans around the calls the workloads make into each ionpulse layer.

The tracer wraps, from outside the package, the names each module imports
from the layer below (``protocol.apply_pulse``, ``protocol.free_evolve``,
``seqlang.fock_populations``, ``seqlang.parse`` as the CLI reaches it, ...)
plus ``StateVector.copy``/``norm``/``to_dump``, and restores every one of
them afterwards.  Nothing inside ``src/ionpulse`` changes.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory and are written out once, at the end of the run.
A span's self time is its duration minus the durations of its children;
calls are single-threaded and strictly nested, so children never overlap.

While ``counting`` is on, the pulse and state-allocation wrappers also
count what the call works on (nonzero amplitudes, array bytes).  Those
figures come from array sizes, not from timing, so they repeat exactly;
the counting itself costs time, which is why the worker takes counts and
self times from different operations.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ionpulse import cli, protocol, seqlang
from ionpulse.hilbert import StateVector
from ionpulse.pulses import PulseKind, PulseMode

from metrics import PROTOCOL_FNS

_PULSE_SPANS = {
    (kind, mode): ("pulses.wait" if kind is PulseKind.WAIT else f"pulses.{kind.value}.{mode.value}")
    for kind in PulseKind
    for mode in PulseMode
}


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counting = False
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = -1
        self._patches = Patches()

    def span(self, fn, name, before=None, after=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's positional
        arguments.  ``before(args)`` and ``after(result)`` run only while
        counting, outside the span's own interval.
        """
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack
        )

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if self.counting and before is not None:
                before(args)
            index = len(names)
            names.append(label)
            parents.append(stack[-1])
            ops.append(self._op)
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            if self.counting and after is not None:
                after(result)
            return result

        return wrapper

    def operation(self, fn):
        """Wrap one whole operation: a root span named ``op`` with a fresh id."""
        inner = self.span(fn, "op")

        def wrapper(*args):
            self._op += 1
            return inner(*args)

        return wrapper

    @property
    def n_ops(self) -> int:
        return self._op + 1

    # -- counting hooks -----------------------------------------------------

    def _count_pulse(self, args) -> None:
        amplitudes = args[0].amplitudes
        self.counts["pulses"] += 1
        self.counts["support"] += np.count_nonzero(amplitudes) / amplitudes.size
        self.counts["pulse_bytes"] += amplitudes.nbytes

    def _count_state(self, state) -> None:
        self.counts["state_bytes"] += state.amplitudes.nbytes

    # -- wrapping -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._patches.restore()

    def _install(self) -> None:
        def pulse_name(args):
            spec = args[1]
            return _PULSE_SPANS[spec.kind, spec.mode]

        patch, span = self._patches.set, self.span
        for module in (protocol, seqlang):
            patch(module, "apply_pulse", span(module.apply_pulse, pulse_name, before=self._count_pulse))
            patch(module, "ground_state", span(module.ground_state, "hilbert.ground_state", after=self._count_state))
        patch(protocol, "free_evolve", span(protocol.free_evolve, "pulses.wait", before=self._count_pulse))
        patch(protocol, "excited_population", span(protocol.excited_population, "hilbert.excited_population"))
        for fn in PROTOCOL_FNS:
            patch(protocol, fn, span(getattr(protocol, fn), f"protocol.{fn}"))
        patch(seqlang, "fock_populations", span(seqlang.fock_populations, "hilbert.fock_populations"))
        for fn in ("parse", "execute"):
            patch(seqlang, fn, span(getattr(seqlang, fn), f"seqlang.{fn}"))
        patch(cli, "main", span(cli.main, "cli.main"))
        patch(StateVector, "copy", span(StateVector.copy, "hilbert.copy", after=self._count_state))
        patch(StateVector, "norm", span(StateVector.norm, "hilbert.norm"))
        patch(StateVector, "to_dump", span(StateVector.to_dump, "hilbert.to_dump"))

    # -- results ------------------------------------------------------------

    def per_op(self, first_op: int, stop_op: int) -> dict[str, tuple[float, float]]:
        """Span name -> (calls, self seconds) per operation over ops [first_op, stop_op)."""
        durations = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros_like(durations)
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        self_s = durations - child
        names, ops = np.array(self.names), np.array(self.ops)
        keep = (ops >= first_op) & (ops < stop_op)
        n_ops = stop_op - first_op
        out = {}
        for name in np.unique(names[keep]):
            mask = keep & (names == name)
            out[str(name)] = (int(mask.sum()) / n_ops, float(self_s[mask].sum()) / n_ops)
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV: op, name, start and end (s, perf_counter), parent row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op,name,start_s,end_s,parent\n")
            for row in zip(self.ops, self.names, self.starts, self.ends, self.parents):
                handle.write("%d,%s,%r,%r,%d\n" % row)
