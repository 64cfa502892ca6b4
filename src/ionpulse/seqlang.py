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

import math
import re
from dataclasses import dataclass, field, replace

from .hilbert import (
    Frame,
    SimulationError,
    StateVector,
    TrapParams,
    _fock_top,
    check_memory,
    fock_populations,
    ground_state,
)
from .pulses import PulseError, PulseKind, PulseMode, PulseSpec, _window_after, apply_pulse, validate_pulse_spec

__all__ = [
    "DEFAULT_PARAMS",
    "ParseDiagnostic",
    "SequenceProgram",
    "SequenceError",
    "StepTrace",
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
    """A validated program: resolved parameters, frame, and ordered steps."""

    params: TrapParams
    frame: Frame
    steps: list[PulseSpec]
    source_spans: list[tuple[int, int]] = field(default_factory=list, compare=False)


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

    @classmethod
    def after(cls, step: int, spec: PulseSpec, state: StateVector) -> StepTrace:
        """The record of step ``step`` (``spec``), read from the state it left."""
        populations = fock_populations(state)
        return cls(step, spec.kind.value, state.clock, math.sqrt(populations.sum()), populations.tolist())


@dataclass
class _Token:
    text: str
    column: int  # 1-based


def _tokenize(line: str) -> list[_Token]:
    code = line.split("#", 1)[0]
    return [_Token(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


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

    def _arguments(self, keyword: str, head: _Token, tokens: list[_Token], line: int) -> dict | None:
        """The key=value tokens as {key: (token, value)}, or None after reporting an error."""
        allowed, required = _STEPS[keyword][1:] if keyword in _STEPS else _HEADERS[keyword]
        args: dict[str, tuple[_Token, object]] = {}
        ok = True
        for tok in tokens:
            key, equals, raw = tok.text.partition("=")
            if not equals:
                message = f"expected key=value, got {tok.text!r}"
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
            self.error(line, tok.column, message)
            ok = False
        missing = [key + "=" for key in required if key not in args]
        if ok and missing:
            self.error(line, head.column, f"{keyword} requires {', '.join(missing)}")
        return args if ok and not missing else None

    def _apply(self, record, args: dict, line: int):
        """``record`` with each argument's field replaced; the record's own rules check each value."""
        for key, (tok, value) in args.items():
            try:
                record = replace(record, **{_ARGS[key][0]: value})
            except ValueError as exc:
                self.error(line, tok.column, str(exc))
        return record

    def statement(self, tokens: list[_Token], line: int) -> None:
        head, rest = tokens[0], tokens[1:]
        keyword = head.text
        compound = f"{keyword} {rest[0].text}" if rest else ""
        if compound in _STEPS or compound in _HEADERS:  # "disp_pi all", "frame R", "frame Rprime"
            keyword, rest = compound, rest[1:]
        if keyword in _STEPS:
            args = self._arguments(keyword, head, rest, line)
            if args is not None:
                fields = {_ARGS[key][0]: value for key, (_, value) in args.items()}
                self.steps.append((PulseSpec(_STEPS[keyword][0], **fields), (line, head.column)))
        elif keyword in _HEADERS:
            if head.text in self.header_seen:
                first = self.header_seen[head.text]
                self.error(line, head.column, f"duplicate {head.text!r} header (first on line {first})")
                return
            self.header_seen[head.text] = line
            args = self._arguments(keyword, head, rest, line)
            if args is None:
                return
            if head.text == "frame":
                self.frame = self._apply(Frame(tokens[1].text), args, line)
            else:
                self.params = self._apply(self.params, args, line)
                if "N" in args:
                    self.n_ions_at = (line, args["N"][0].column)
        elif keyword == "frame":
            self.error(line, (rest[0] if rest else head).column, "frame requires R or Rprime")
        else:
            self.error(line, head.column, f"unknown keyword {keyword!r}")

    def build(self, source_empty_line: int) -> tuple[SequenceProgram | None, list[ParseDiagnostic]]:
        try:
            check_memory(self.params.dim)
        except SimulationError as exc:
            self.error(*self.n_ions_at, str(exc))
        steps: list[PulseSpec] = []
        spans: list[tuple[int, int]] = []
        for spec, span in self.steps:
            try:
                validate_pulse_spec(spec, self.params)
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
        return SequenceProgram(self.params, self.frame, steps, spans), self.diagnostics


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
    parameters).  Failures during a step re-raise as SequenceError with
    the step's source position.  The Fock window is found once, at the
    start, and carried from step to step.
    """
    if initial is None:
        state, top = ground_state(program.params, program.frame), 0
    else:
        if initial.params != program.params:
            raise ValueError("initial state parameters do not match the program header")
        state = initial.copy()
        top = _fock_top(state.amplitudes, state.params)
    trace: list[StepTrace] = []
    spans = program.source_spans or [(0, 0)] * len(program.steps)
    for step, (spec, (line, column)) in enumerate(zip(program.steps, spans), start=1):
        try:
            apply_pulse(state, spec, top=top)
        except (SimulationError, ValueError) as exc:
            raise SequenceError(line, column, str(exc)) from exc
        top = _window_after(state.amplitudes, state.params, spec, top)
        trace.append(StepTrace.after(step, spec, state))
    return state, trace
