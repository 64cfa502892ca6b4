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
the phases.  Parsing never raises: every problem becomes a diagnostic
with a 1-based line and column, and errors simply leave no program to
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
from dataclasses import dataclass, field

from .hilbert import FRAME_R, FRAME_R_PRIME, Frame, SimulationError, StateVector, TrapParams, check_memory, fock_populations, ground_state
from .pulses import PulseError, PulseKind, PulseMode, PulseSpec, apply_pulse, validate_pulse_spec

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
    index: int
    kind: str
    clock: float
    norm: float
    fock_populations: list[float]


@dataclass
class _Token:
    text: str
    column: int  # 1-based


_PULSE_KEYWORDS = {
    "carrier_pi2": PulseKind.CARRIER_PI_HALF,
    "jc_pi": PulseKind.JC_PI,
    "disp_pi": PulseKind.DISPERSIVE_SINGLE_PI,
    "wait": PulseKind.WAIT,
}

_HEADER_KEYWORDS = ("ions", "trap", "frame")


def _tokenize(line: str) -> list[_Token]:
    code = line.split("#", 1)[0]
    return [_Token(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


class _Parser:
    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.header_seen: dict[str, int] = {}
        self.n_ions = DEFAULT_PARAMS.n_ions
        self.n_ions_at = (1, 1)  # line and column of the ion count, for the memory diagnostic
        self.trap = {
            "nu": DEFAULT_PARAMS.trap_freq,
            "eta": DEFAULT_PARAMS.lamb_dicke,
            "rabi": DEFAULT_PARAMS.base_rabi,
            "nmax": DEFAULT_PARAMS.fock_cutoff,
        }
        self.frame = Frame(FRAME_R)
        # raw steps: (kind, collective?, args {key: (token, value)}, line, col)
        self.raw_steps: list[tuple] = []

    def error(self, line: int, column: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic("error", line, column, message))

    def warning(self, line: int, column: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic("warning", line, column, message))

    def _split_args(self, tokens: list[_Token], line: int, allowed: dict[str, str]) -> dict | None:
        """Parse key=value tokens; ``allowed`` maps key -> 'int'|'float'|'mode'."""
        args: dict[str, tuple[_Token, object]] = {}
        ok = True
        for tok in tokens:
            if "=" not in tok.text:
                self.error(line, tok.column, f"expected key=value, got {tok.text!r}")
                ok = False
                continue
            key, _, raw = tok.text.partition("=")
            if key not in allowed:
                self.error(line, tok.column, f"unknown argument {key!r}")
                ok = False
                continue
            if key in args:
                self.error(line, tok.column, f"duplicate argument {key!r}")
                ok = False
                continue
            kind = allowed[key]
            if kind == "int":
                try:
                    value: object = int(raw)
                except ValueError:
                    self.error(line, tok.column, f"malformed integer {raw!r}")
                    ok = False
                    continue
            elif kind == "float":
                try:
                    value = float(raw)
                except ValueError:
                    self.error(line, tok.column, f"malformed number {raw!r}")
                    ok = False
                    continue
                if not math.isfinite(value):
                    self.error(line, tok.column, f"malformed number {raw!r}")
                    ok = False
                    continue
            else:  # mode
                if raw not in ("ideal", "physical"):
                    self.error(line, tok.column, f"unknown mode {raw!r} (expected ideal or physical)")
                    ok = False
                    continue
                value = PulseMode(raw)
            args[key] = (tok, value)
        return args if ok else None

    def _require(self, args: dict, keys: list[str], line: int, column: int, stmt: str) -> bool:
        missing = [k for k in keys if k not in args]
        if missing:
            self.error(line, column, f"{stmt} requires {', '.join(k + '=' for k in missing)}")
            return False
        return True

    def _check_duplicate_header(self, keyword: str, line: int, column: int) -> bool:
        if keyword in self.header_seen:
            self.error(
                line, column, f"duplicate {keyword!r} header (first on line {self.header_seen[keyword]})"
            )
            return False
        self.header_seen[keyword] = line
        return True

    def statement(self, tokens: list[_Token], line: int) -> None:
        head = tokens[0]
        rest = tokens[1:]
        if head.text == "ions":
            if not self._check_duplicate_header("ions", line, head.column):
                return
            args = self._split_args(rest, line, {"N": "int"})
            if args is None or not self._require(args, ["N"], line, head.column, "ions"):
                return
            value = args["N"][1]
            if value < 1:
                self.error(line, args["N"][0].column, f"ion count must be >= 1, got {value}")
                return
            self.n_ions = value
            self.n_ions_at = (line, args["N"][0].column)
        elif head.text == "trap":
            if not self._check_duplicate_header("trap", line, head.column):
                return
            args = self._split_args(rest, line, {"nu": "float", "eta": "float", "rabi": "float", "nmax": "int"})
            if args is None:
                return
            for key, (tok, value) in args.items():
                if key == "nmax" and value < 1:
                    self.error(line, tok.column, f"nmax must be >= 1, got {value}")
                    return
                if key in ("nu", "eta", "rabi") and value <= 0:
                    self.error(line, tok.column, f"{key} must be positive, got {value!r}")
                    return
                self.trap[key] = value
        elif head.text == "frame":
            if not self._check_duplicate_header("frame", line, head.column):
                return
            if not rest:
                self.error(line, head.column, "frame requires R or Rprime")
                return
            tag = rest[0]
            if tag.text == "R":
                if len(rest) > 1:
                    self.error(line, rest[1].column, "frame R takes no arguments")
                    return
                self.frame = Frame(FRAME_R)
            elif tag.text == "Rprime":
                args = self._split_args(rest[1:], line, {"delta": "float"})
                if args is None:
                    return
                delta = args["delta"][1] if "delta" in args else 0.0
                self.frame = Frame(FRAME_R_PRIME, detuning=delta)
            else:
                self.error(line, tag.column, f"unknown frame {tag.text!r} (expected R or Rprime)")
        elif head.text in _PULSE_KEYWORDS:
            self.pulse_statement(head, rest, line)
        else:
            self.error(line, head.column, f"unknown keyword {head.text!r}")

    def pulse_statement(self, head: _Token, rest: list[_Token], line: int) -> None:
        kind = _PULSE_KEYWORDS[head.text]
        collective = False
        if head.text == "disp_pi" and rest and rest[0].text == "all":
            collective = True
            rest = rest[1:]
        if kind is PulseKind.CARRIER_PI_HALF:
            args = self._split_args(rest, line, {"ion": "int", "phase": "float"})
            if args is None or not self._require(args, ["ion"], line, head.column, head.text):
                return
        elif kind is PulseKind.WAIT:
            args = self._split_args(rest, line, {"T": "float"})
            if args is None or not self._require(args, ["T"], line, head.column, head.text):
                return
        elif collective:
            args = self._split_args(rest, line, {"n": "int", "mode": "mode"})
            if args is None or not self._require(args, ["n"], line, head.column, "disp_pi all"):
                return
        else:  # jc_pi / disp_pi ion=...
            args = self._split_args(rest, line, {"ion": "int", "n": "int", "mode": "mode"})
            if args is None or not self._require(args, ["ion", "n"], line, head.column, head.text):
                return
        self.raw_steps.append((kind, collective, args, line, head.column))

    def build(self, source_empty_line: int) -> tuple[SequenceProgram | None, list[ParseDiagnostic]]:
        params = None
        try:
            params = TrapParams(
                n_ions=self.n_ions,
                trap_freq=self.trap["nu"],
                lamb_dicke=self.trap["eta"],
                base_rabi=self.trap["rabi"],
                fock_cutoff=self.trap["nmax"],
            )
        except ValueError as exc:
            self.error(self.header_seen.get("trap", 1), 1, str(exc))
        else:
            try:
                check_memory(params.dim)
            except SimulationError as exc:
                self.error(*self.n_ions_at, str(exc))

        steps: list[PulseSpec] = []
        spans: list[tuple[int, int]] = []
        if params is not None:
            for kind, collective, args, line, column in self.raw_steps:
                if collective:
                    kind = PulseKind.DISPERSIVE_COLLECTIVE_PI
                spec = PulseSpec(
                    kind=kind,
                    target_ion=args["ion"][1] if "ion" in args else 0,
                    target_n=args["n"][1] if "n" in args else 0,
                    mode=args["mode"][1] if "mode" in args else PulseMode.IDEAL,
                    duration=args["T"][1] if "T" in args else None,
                    laser_phase=args["phase"][1] if "phase" in args else 0.0,
                )
                try:
                    validate_pulse_spec(spec, params)
                except PulseError as exc:
                    self.error(line, column, str(exc))
                    continue
                steps.append(spec)
                spans.append((line, column))

        self.diagnostics.sort(key=lambda d: (d.line, d.column))
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        if not steps:
            self.warning(source_empty_line, 1, "no steps")
        return SequenceProgram(params, self.frame, steps, spans), self.diagnostics


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


def _fmt(value: float) -> str:
    return repr(float(value))


def format_program(program: SequenceProgram) -> str:
    """Canonical source text: full header, one step per line, fixed key order.

    Comments are dropped, defaults (mode=ideal, phase=0) are omitted, and
    floats use their shortest round-trip form, so parse(format(p))
    reproduces p structurally and format is idempotent.
    """
    p = program.params
    lines = [
        f"ions N={p.n_ions}",
        f"trap nu={_fmt(p.trap_freq)} eta={_fmt(p.lamb_dicke)} rabi={_fmt(p.base_rabi)} nmax={p.fock_cutoff}",
    ]
    if program.frame.tag == FRAME_R:
        lines.append("frame R")
    else:
        lines.append(f"frame Rprime delta={_fmt(program.frame.detuning)}")
    for spec in program.steps:
        if spec.kind is PulseKind.CARRIER_PI_HALF:
            item = f"carrier_pi2 ion={spec.target_ion}"
            if spec.laser_phase != 0.0:
                item += f" phase={_fmt(spec.laser_phase)}"
        elif spec.kind is PulseKind.JC_PI:
            item = f"jc_pi ion={spec.target_ion} n={spec.target_n}"
            if spec.mode is PulseMode.PHYSICAL:
                item += " mode=physical"
        elif spec.kind is PulseKind.DISPERSIVE_SINGLE_PI:
            item = f"disp_pi ion={spec.target_ion} n={spec.target_n}"
            if spec.mode is PulseMode.PHYSICAL:
                item += " mode=physical"
        elif spec.kind is PulseKind.DISPERSIVE_COLLECTIVE_PI:
            item = f"disp_pi all n={spec.target_n}"
            if spec.mode is PulseMode.PHYSICAL:
                item += " mode=physical"
        elif spec.kind is PulseKind.WAIT:
            item = f"wait T={_fmt(spec.duration)}"
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"cannot format step kind {spec.kind!r}")
        lines.append(item)
    return "\n".join(lines) + "\n"


def execute(
    program: SequenceProgram,
    initial: StateVector | None = None,
) -> tuple[StateVector, list[StepTrace]]:
    """Run a program, back-to-back, returning the final state and a trace.

    Starts from the ground state in the program's frame unless ``initial``
    is given (it is copied, not mutated, and must match the program's
    parameters).  Failures during a step re-raise as SequenceError with
    the step's source position.
    """
    if initial is None:
        state = ground_state(program.params, program.frame)
    else:
        if initial.params != program.params:
            raise ValueError("initial state parameters do not match the program header")
        state = initial.copy()
    trace: list[StepTrace] = []
    spans = program.source_spans or [(0, 0)] * len(program.steps)
    for index, (spec, (line, column)) in enumerate(zip(program.steps, spans), start=1):
        try:
            apply_pulse(state, spec)
        except (SimulationError, ValueError) as exc:
            raise SequenceError(line, column, str(exc)) from exc
        trace.append(
            StepTrace(
                index=index,
                kind=spec.kind.value,
                clock=state.clock,
                norm=state.norm(),
                fock_populations=[float(x) for x in fock_populations(state)],
            )
        )
    return state, trace
