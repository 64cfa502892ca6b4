"""Line-oriented pulse-sequence language (.pseq files).

One statement per line, ``#`` starts a comment, blank lines are ignored.
Header statements (each at most once, defaults in parentheses):

    ions N=<int>                                  (N=1)
    trap nu=<float> eta=<float> rabi=<float> nmax=<int>
                                                  (nu=1 eta=0.1 rabi=1 nmax=4)
    frame R | frame Rprime delta=<float>          (frame R)

Pulse statements:

    carrier_pi2 ion=<int> [phase=<float>]
    jc_pi ion=<int> n=<int> [mode=ideal|physical]
    disp_pi ion=<int> n=<int> [mode=ideal|physical]
    disp_pi all n=<int> [mode=ideal|physical]
    wait T=<float>

Times and frequencies are in units of 1/nu and nu when the header sets
``nu=1`` (the default), SI otherwise; only the products nu*t matter for
the phases.  Header values follow the rules of ``TrapParams`` and
``Frame``, and steps those of ``validate_pulse_spec``; the parser itself
checks only the grammar.  A line's words are split on whitespace, and a
header line gives its record in one step.  Parsing never raises: every
problem becomes a diagnostic with a 1-based line and column, looked up
only then (a bad header value at its own word, a bad step at its
keyword), and errors leave no program to execute.  Parsing checks no
memory: a run checks it where it allocates, the start state's sector
first and the whole array only when a step needs it.  The canonical
five-pulse preparation program for three ions is

    ions N=3
    carrier_pi2 ion=3
    jc_pi ion=3 n=0
    disp_pi all n=1
    disp_pi ion=3 n=1
    jc_pi ion=3 n=0
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .hilbert import (
    Frame,
    SimulationError,
    StateVector,
    TrapParams,
    _fock_top,
    fock_populations,  # noqa: F401 - not called here; profiling tools wrap this module's names
    ground_state,
)
from .protocol import _run_steps
from .pulses import PulseError, PulseKind, PulseMode, PulseSpec, _plan, validate_pulse_spec
from .pulses import apply_pulse  # noqa: F401 - not called here; profiling tools wrap this module's names

__all__ = [
    "DEFAULT_PARAMS",
    "ParseDiagnostic",
    "SequenceProgram",
    "SequenceError",
    "StepTrace",
    "step_traces",
    "parse",
    "format_program",
    "execute",
]

DEFAULT_PARAMS = TrapParams(n_ions=1, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=4)

# The grammar.  parse and format_program read the same rows, so changing a
# statement edits one row.
# argument -> (the TrapParams, Frame or PulseSpec field it sets, value type)
_ARGS = {
    "N": ("n_ions", int),
    "nu": ("trap_freq", float),
    "eta": ("lamb_dicke", float),
    "rabi": ("base_rabi", float),
    "nmax": ("fock_cutoff", int),
    "delta": ("detuning", float),
    "ion": ("target_ion", int),
    "n": ("target_n", int),
    "mode": ("mode", PulseMode),
    "phase": ("laser_phase", float),
    "T": ("duration", float),
}

# header keyword -> (arguments in canonical order, required arguments)
_HEADERS = {
    "ions": (("N",), ("N",)),
    "trap": (("nu", "eta", "rabi", "nmax"), ()),
    "frame R": ((), ()),
    "frame Rprime": (("delta",), ()),
}

# step keyword -> (kind, arguments in canonical order, required arguments)
_STEPS = {
    "carrier_pi2": (PulseKind.CARRIER_PI_HALF, ("ion", "phase"), ("ion",)),
    "jc_pi": (PulseKind.JC_PI, ("ion", "n", "mode"), ("ion", "n")),
    "disp_pi": (PulseKind.DISPERSIVE_SINGLE_PI, ("ion", "n", "mode"), ("ion", "n")),
    "disp_pi all": (PulseKind.DISPERSIVE_COLLECTIVE_PI, ("n", "mode"), ("n",)),
    "wait": (PulseKind.WAIT, ("T",), ("T",)),
}

_STEP_KEYWORDS = {kind: keyword for keyword, (kind, _, _) in _STEPS.items()}

_MALFORMED = {
    int: "malformed integer {!r}",
    float: "malformed number {!r}",
    PulseMode: "unknown mode {!r} (expected ideal or physical)",
}


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" or "warning"
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass
class SequenceProgram:
    """A validated program: resolved parameters, frame, and ordered steps.

    ``_checked`` holds what :func:`parse` validated: the params and step
    objects it checked and each step's duration.  :func:`execute` reuses a
    duration only for the same step object under the same params object,
    so a hand-built program, or one whose params or steps changed after
    parsing, has those steps validated as they run.
    """

    params: TrapParams
    frame: Frame
    steps: list[PulseSpec]
    source_spans: list[tuple[int, int]] = field(default_factory=list, compare=False)
    _checked: tuple[TrapParams, list[PulseSpec], list[float]] | None = field(default=None, compare=False, repr=False)

    def _durations(self) -> list[float | None]:
        """Each step's duration from :func:`parse`, or None where the step or the params are not the ones it checked."""
        params, specs, durations = self._checked or (None, [], [])
        if params is not self.params or len(specs) != len(self.steps):
            return [None] * len(self.steps)
        return [d if checked is spec else None for checked, d, spec in zip(specs, durations, self.steps)]


class SequenceError(SimulationError):
    """A step failed during execution; carries its source position."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"{line}:{column}: error: {message}")
        self.line = line
        self.column = column


@dataclass
class StepTrace:
    """One applied step: its 1-based number and kind, then the clock, norm and Fock marginal after it."""

    step: int
    kind: str
    clock: float
    norm: float
    fock_populations: list[float]


def step_traces(steps: list[PulseSpec], clocks: list[float], table: np.ndarray) -> list[StepTrace]:
    """The records of ``steps`` from their end clocks and populations, one row of levels 0 .. n_max per step.

    A row holds zeros above the levels its step read, so each record's
    populations and norm are bit for bit those read from its step state by
    :func:`ionpulse.hilbert.fock_populations`.
    """
    norms = np.sqrt(table.sum(axis=1)).tolist()
    return [
        StepTrace(step, spec.kind.value, clock, norm, populations)
        for step, (spec, clock, norm, populations) in enumerate(zip(steps, clocks, norms, table.tolist()), start=1)
    ]


_WORD = re.compile(r"\S+")

# Derived for the parser: keyword -> (step kind or None, {argument: (field, type)}, required arguments, their fields)
_STATEMENTS = {
    keyword: (kind, {key: _ARGS[key] for key in keys}, required, {_ARGS[key][0] for key in required})
    for keyword, (kind, keys, required) in [*_STEPS.items(), *((k, (None, *v)) for k, v in _HEADERS.items())]
}


class _Parser:
    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.header_seen: dict[str, int] = {}
        self.params = DEFAULT_PARAMS
        self.frame = Frame()
        self.steps: list[tuple[PulseSpec, tuple[int, int]]] = []

    def errors(self, line: int, code: str, bad: list[tuple[int, str]]) -> None:
        """Report each (word index, message) of a line's code at its word's 1-based column."""
        columns = [word.start() + 1 for word in _WORD.finditer(code)]
        self.diagnostics += [ParseDiagnostic("error", line, columns[index], message) for index, message in bad]

    def _arguments(self, keyword: str, words: list[str], start: int, code: str, line: int) -> dict | None:
        """The key=value words from ``start`` on as {field: value}, or None after reporting an error."""
        _, allowed, required, required_fields = _STATEMENTS[keyword]
        fields, bad = {}, []
        for index in range(start, len(words)):
            key, equals, raw = words[index].partition("=")
            arg = allowed.get(key)
            if not equals:
                bad.append((index, f"expected key=value, got {words[index]!r}"))
            elif arg is None:
                bad.append((index, f"unknown argument {key!r}"))
            elif arg[0] in fields:
                bad.append((index, f"duplicate argument {key!r}"))
            else:
                try:
                    fields[arg[0]] = arg[1](raw)
                except ValueError:
                    bad.append((index, _MALFORMED[arg[1]].format(raw)))
        if not bad and not required_fields <= fields.keys():
            bad = [(0, f"{keyword} requires {', '.join(k + '=' for k in required if _ARGS[k][0] not in fields)}")]
        if bad:
            self.errors(line, code, bad)
        return None if bad else fields

    def _apply(self, record, fields: dict, start: int, code: str, line: int):
        """``record`` with ``fields`` (words ``start`` on) replaced; its own rules check them."""
        try:
            return replace(record, **fields)
        except ValueError:  # one field at a time, to report each bad value at its own word
            bad = []
            for index, (name, value) in enumerate(fields.items(), start):
                try:
                    record = replace(record, **{name: value})
                except ValueError as exc:
                    bad.append((index, str(exc)))
            self.errors(line, code, bad)
            return record

    def statement(self, words: list[str], code: str, line: int) -> None:
        head = keyword = words[0]
        start = 1
        if len(words) > 1 and f"{head} {words[1]}" in _STATEMENTS:
            keyword, start = f"{head} {words[1]}", 2  # "disp_pi all", "frame R", "frame Rprime"
        grammar = _STATEMENTS.get(keyword)
        if keyword == "frame":  # neither "frame R" nor "frame Rprime"
            self.errors(line, code, [(min(len(words) - 1, 1), "frame requires R or Rprime")])
        elif grammar is None:
            self.errors(line, code, [(0, f"unknown keyword {keyword!r}")])
        elif grammar[0] is not None:
            fields = self._arguments(keyword, words, start, code, line)
            if fields is not None:
                self.steps.append((PulseSpec(grammar[0], **fields), (line, len(code) - len(code.lstrip()) + 1)))
        elif head in self.header_seen:
            self.errors(line, code, [(0, f"duplicate {head!r} header (first on line {self.header_seen[head]})")])
        else:
            self.header_seen[head] = line
            fields = self._arguments(keyword, words, start, code, line)
            if fields is not None and head == "frame":
                self.frame = self._apply(Frame(words[1]), fields, start, code, line)
            elif fields is not None:
                self.params = self._apply(self.params, fields, start, code, line)

    def build(self, source_empty_line: int) -> tuple[SequenceProgram | None, list[ParseDiagnostic]]:
        steps, spans, durations = [], [], []
        for spec, span in self.steps:
            try:
                durations.append(validate_pulse_spec(spec, self.params))
            except PulseError as exc:
                self.diagnostics.append(ParseDiagnostic("error", *span, str(exc)))
                continue
            steps.append(spec)
            spans.append(span)

        self.diagnostics.sort(key=lambda d: (d.line, d.column))
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        if not steps:
            self.diagnostics.append(ParseDiagnostic("warning", source_empty_line, 1, "no steps"))
        checked = (self.params, list(steps), durations)  # a copy: editing program.steps leaves it as checked
        return SequenceProgram(self.params, self.frame, steps, spans, checked), self.diagnostics


def parse(source: str) -> tuple[SequenceProgram | None, list[ParseDiagnostic]]:
    """Parse a program; returns (program or None, diagnostics).

    The program is None exactly when at least one error diagnostic was
    produced.  Warnings never abort.
    """
    parser = _Parser()
    lines = source.splitlines()
    for number, text in enumerate(lines, start=1):
        code = text.partition("#")[0]
        words = code.split()
        if words:
            parser.statement(words, code, number)
    return parser.build(len(lines) + 1)


def _statement_text(keyword: str, record, keys) -> str:
    """``keyword key=value ...`` with each value read from its field of ``record``."""
    words = [keyword]
    for key in keys:
        name, value_type = _ARGS[key]
        value = value_type(getattr(record, name))
        words.append(f"{key}={value.value if isinstance(value, PulseMode) else repr(value)}")
    return " ".join(words)


def format_program(program: SequenceProgram) -> str:
    """Canonical source text: full header, one step per line, fixed key order.

    Comments and defaults (mode=ideal, phase=0) are dropped and floats take
    their shortest round-trip form, so parse(format(p)) reproduces every
    program parse returns, and format is idempotent.  Fields the run ignores
    (a carrier's or a wait's mode, a collective pulse's target_ion, a finite
    wait's laser_phase) are dropped; a laser phase no statement can write,
    or a non-finite one on any step, raises ValueError naming the step.
    """
    header = [("ions", program.params), ("trap", program.params), (f"frame {program.frame.tag}", program.frame)]
    lines = [_statement_text(keyword, record, _HEADERS[keyword][0]) for keyword, record in header]
    for number, spec in enumerate(program.steps, start=1):
        keyword = _STEP_KEYWORDS[spec.kind]
        _, keys, required = _STEPS[keyword]
        if not math.isfinite(spec.laser_phase):
            raise ValueError(f"step {number} ({keyword}): laser_phase must be finite, got {spec.laser_phase!r}")
        if spec.laser_phase != 0 and "phase" not in keys and spec.kind is not PulseKind.WAIT:
            raise ValueError(f"step {number} ({keyword}): laser_phase={spec.laser_phase!r} has no argument to write it")
        default = PulseSpec(spec.kind)
        shown = [k for k in keys if k in required or getattr(spec, _ARGS[k][0]) != getattr(default, _ARGS[k][0])]
        lines.append(_statement_text(keyword, spec, shown))
    return "\n".join(lines) + "\n"


def execute(
    program: SequenceProgram,
    initial: StateVector | None = None,
) -> tuple[StateVector, list[StepTrace]]:
    """Run a program, back-to-back, returning the final state and a trace.

    Starts from the ground state in the program's frame, stored in the
    sector basis, unless ``initial`` is given (it is copied, not mutated,
    and must match the program's parameters); a state stored in the sector
    stays there until a step needs its whole array.  The steps run through
    :func:`ionpulse.protocol._run_steps`, each planned (:func:`ionpulse.pulses._plan`) as it is reached
    with the duration :func:`parse` validated, from the window of the
    start state; each step's populations fill its row of one zero-padded
    table, from which :func:`step_traces` builds the records.  A failing
    step re-raises as SequenceError with its source position.
    """
    if initial is None:
        state, top = ground_state(program.params, program.frame), 0
    else:
        if initial.params != program.params:
            raise ValueError("initial state parameters do not match the program header")
        state = initial.copy()
        top = _fock_top(state._rows(), state.params)
    steps = program.steps
    spans = program.source_spans + [(0, 0)] * len(steps)  # a step without a source line fails at 0:0
    table = np.zeros((len(steps), state.params.n_levels))
    clocks = []
    try:
        plan = _plan(state.params, steps, state.clock, abs(state.frame.detuning), program._durations())
        for row, levels in zip(table, _run_steps(state, steps, top, plan)):
            row[: levels.size] = levels
            clocks.append(state.clock)
    except (SimulationError, ValueError) as exc:
        raise SequenceError(*spans[len(clocks)], str(exc)) from exc
    return state, step_traces(steps, clocks, table)
