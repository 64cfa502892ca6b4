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
checks only the grammar.  Parsing never raises: every problem becomes a
diagnostic with a 1-based line and column (a bad header value at its own
token, a bad step at its keyword), and errors simply leave no program to
execute.  The canonical five-pulse preparation program for three ions is

    ions N=3
    carrier_pi2 ion=3
    jc_pi ion=3 n=0
    disp_pi all n=1
    disp_pi ion=3 n=1
    jc_pi ion=3 n=0
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .hilbert import (
    Frame,
    SimulationError,
    StateVector,
    TrapParams,
    _fock_top,
    check_memory,
    fock_populations,  # noqa: F401 - not called here; profiling tools wrap this module's names
    ground_state,
)
from .protocol import _run_steps
from .pulses import PulseError, PulseKind, PulseMode, PulseSpec, validate_pulse_spec
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


def _tokenize(line: str) -> list[re.Match[str]]:
    """The words before any ``#``, as matches: ``tok[0]`` is the text, ``tok.start() + 1`` the 1-based column."""
    return list(_WORD.finditer(line.partition("#")[0]))


class _Parser:
    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.header_seen: dict[str, int] = {}
        self.params = DEFAULT_PARAMS
        self.n_ions_at = (1, 1)  # line and column of the ion count, for the memory diagnostic
        self.frame = Frame()
        self.steps: list[tuple[PulseSpec, tuple[int, int]]] = []

    def error(self, line: int, column: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic("error", line, column, message))

    def _arguments(self, keyword: str, head: re.Match[str], tokens: list[re.Match[str]], line: int) -> dict | None:
        """The key=value tokens as {key: (token, value)}, or None after reporting an error."""
        allowed, required = _STEPS[keyword][1:] if keyword in _STEPS else _HEADERS[keyword]
        args: dict[str, tuple[re.Match[str], object]] = {}
        ok = True
        for tok in tokens:
            key, equals, raw = tok[0].partition("=")
            if not equals:
                message = f"expected key=value, got {tok[0]!r}"
            elif key not in allowed:
                message = f"unknown argument {key!r}"
            elif key in args:
                message = f"duplicate argument {key!r}"
            else:
                value_type = _ARGS[key][1]
                try:
                    args[key] = (tok, value_type(raw))
                    continue
                except ValueError:
                    message = _MALFORMED[value_type].format(raw)
            self.error(line, tok.start() + 1, message)
            ok = False
        missing = [key + "=" for key in required if key not in args]
        if ok and missing:
            self.error(line, head.start() + 1, f"{keyword} requires {', '.join(missing)}")
        return args if ok and not missing else None

    def _apply(self, record, args: dict, line: int):
        """``record`` with each argument's field replaced; the record's own rules check each value."""
        for key, (tok, value) in args.items():
            try:
                record = replace(record, **{_ARGS[key][0]: value})
            except ValueError as exc:
                self.error(line, tok.start() + 1, str(exc))
        return record

    def statement(self, tokens: list[re.Match[str]], line: int) -> None:
        head, rest = tokens[0], tokens[1:]
        keyword = head[0]
        compound = f"{keyword} {rest[0][0]}" if rest else ""
        if compound in _STEPS or compound in _HEADERS:  # "disp_pi all", "frame R", "frame Rprime"
            keyword, rest = compound, rest[1:]
        if keyword in _STEPS:
            args = self._arguments(keyword, head, rest, line)
            if args is not None:
                fields = {_ARGS[key][0]: value for key, (_, value) in args.items()}
                self.steps.append((PulseSpec(_STEPS[keyword][0], **fields), (line, head.start() + 1)))
        elif keyword in _HEADERS:
            if head[0] in self.header_seen:
                first = self.header_seen[head[0]]
                self.error(line, head.start() + 1, f"duplicate {head[0]!r} header (first on line {first})")
                return
            self.header_seen[head[0]] = line
            args = self._arguments(keyword, head, rest, line)
            if args is None:
                return
            if head[0] == "frame":
                self.frame = self._apply(Frame(tokens[1][0]), args, line)
            else:
                self.params = self._apply(self.params, args, line)
                if "N" in args:
                    self.n_ions_at = (line, args["N"][0].start() + 1)
        elif keyword == "frame":
            self.error(line, (rest[0] if rest else head).start() + 1, "frame requires R or Rprime")
        else:
            self.error(line, head.start() + 1, f"unknown keyword {keyword!r}")

    def build(self, source_empty_line: int) -> tuple[SequenceProgram | None, list[ParseDiagnostic]]:
        try:
            check_memory(self.params.n_levels, n_ions=self.params.n_ions)
        except SimulationError as exc:
            self.error(*self.n_ions_at, str(exc))
        steps: list[PulseSpec] = []
        spans: list[tuple[int, int]] = []
        durations: list[float] = []
        for spec, span in self.steps:
            try:
                durations.append(validate_pulse_spec(spec, self.params))
            except PulseError as exc:
                self.error(*span, str(exc))
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
        tokens = _tokenize(text)
        if tokens:
            parser.statement(tokens, number)
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

    Comments are dropped, defaults (mode=ideal, phase=0) are omitted, and
    floats use their shortest round-trip form, so parse(format(p))
    reproduces p structurally and format is idempotent.
    """
    header = [("ions", program.params), ("trap", program.params), (f"frame {program.frame.tag}", program.frame)]
    lines = [_statement_text(keyword, record, _HEADERS[keyword][0]) for keyword, record in header]
    for spec in program.steps:
        keyword = _STEP_KEYWORDS[spec.kind]
        _, keys, required = _STEPS[keyword]
        default = PulseSpec(spec.kind)
        shown = [k for k in keys if k in required or getattr(spec, _ARGS[k][0]) != getattr(default, _ARGS[k][0])]
        lines.append(_statement_text(keyword, spec, shown))
    return "\n".join(lines) + "\n"


def execute(
    program: SequenceProgram,
    initial: StateVector | None = None,
) -> tuple[StateVector, list[StepTrace]]:
    """Run a program, back-to-back, returning the final state and a trace.

    Starts from the ground state in the program's frame unless ``initial``
    is given (it is copied, not mutated, and must match the program's
    parameters; one stored in the sector basis stays there until a step
    needs its whole array).  The steps run through
    :func:`ionpulse.protocol._run_steps` with the durations :func:`parse`
    validated, from the window of the start state; each step's populations
    fill its row of one zero-padded table, from which :func:`step_traces`
    builds the records.  A failing step re-raises as SequenceError with
    its source position.
    """
    if initial is None:
        state, top = ground_state(program.params, program.frame), 0
    else:
        if initial.params != program.params:
            raise ValueError("initial state parameters do not match the program header")
        state = initial.copy()
        top = _fock_top(state._rows(), state.params)
    steps = program.steps
    spans = program.source_spans or [(0, 0)] * len(steps)
    table = np.zeros((len(steps), state.params.n_levels))
    clocks = []
    try:
        for row, _, levels in zip(table, spans, _run_steps(state, steps, top, program._durations())):
            row[: levels.size] = levels
            clocks.append(state.clock)
    except (SimulationError, ValueError) as exc:
        raise SequenceError(*spans[len(clocks)], str(exc)) from exc
    return state, step_traces(steps, clocks, table)
