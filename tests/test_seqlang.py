
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpulse import (
    FRAME_R,
    FRAME_R_PRIME,
    Frame,
    PulseKind,
    PulseMode,
    PulseSpec,
    SequenceError,
    SequenceProgram,
    SimulationError,
    TrapParams,
    excited_population,
    fidelity,
    preparation_sequence,
    prepare_max_entangled,
)
from ionpulse.seqlang import DEFAULT_PARAMS, execute, format_program, parse
from conftest import dicke_extreme, make_params, target_ghz

CANONICAL_3 = """\
# build the entangled state on three ions
ions N=3
carrier_pi2 ion=3
jc_pi ion=3 n=0
disp_pi all n=1
disp_pi ion=3 n=1
jc_pi ion=3 n=0
"""


def errors_of(diags):
    return [d for d in diags if d.severity == "error"]


class TestParse:
    def test_canonical_program(self):
        program, diags = parse(CANONICAL_3)
        assert errors_of(diags) == []
        assert program.params.n_ions == 3
        assert program.frame == Frame(FRAME_R)
        kinds = [s.kind for s in program.steps]
        assert kinds == [
            PulseKind.CARRIER_PI_HALF,
            PulseKind.JC_PI,
            PulseKind.DISPERSIVE_COLLECTIVE_PI,
            PulseKind.DISPERSIVE_SINGLE_PI,
            PulseKind.JC_PI,
        ]
        assert [s.target_n for s in program.steps] == [0, 0, 1, 1, 0]
        assert program.steps[1].target_ion == 3
        assert program.source_spans[0] == (3, 1)

    def test_defaults_match_documented_values(self):
        program, diags = parse("carrier_pi2 ion=1\n")
        assert errors_of(diags) == []
        assert program.params == DEFAULT_PARAMS

    def test_header_overrides(self):
        program, _ = parse("ions N=2\ntrap nu=2.5 eta=0.2 rabi=3.0 nmax=6\nframe Rprime delta=0.001\nwait T=1.0\n")
        assert program.params == TrapParams(2, 2.5, 0.2, 3.0, 6)
        assert program.frame == Frame(FRAME_R_PRIME, detuning=0.001)

    def test_partial_trap_override(self):
        program, _ = parse("trap eta=0.3\nwait T=0.0\n")
        assert program.params.lamb_dicke == 0.3
        assert program.params.trap_freq == DEFAULT_PARAMS.trap_freq

    def test_empty_source_warns_no_steps(self):
        program, diags = parse("")
        assert program is not None and program.steps == []
        assert any(d.severity == "warning" and d.message == "no steps" for d in diags)

    def test_comments_only_warns_no_steps(self):
        program, diags = parse("# nothing here\n\n   # still nothing\n")
        assert program is not None and program.steps == []
        assert any(d.message == "no steps" for d in diags)

    def test_dispersive_n_zero_rejected_with_position(self):
        program, diags = parse("ions N=2\ndisp_pi all n=0\n")
        assert program is None
        err = errors_of(diags)[0]
        assert (err.line, err.column) == (2, 1)
        assert "n >= 1" in err.message and "zero" in err.message
        assert str(err).startswith("2:1: error:")

    def test_unknown_keyword(self):
        program, diags = parse("ions N=2\n  explode now\n")
        assert program is None
        err = errors_of(diags)[0]
        assert (err.line, err.column) == (2, 3)
        assert "unknown keyword" in err.message

    def test_malformed_number(self):
        program, diags = parse("wait T=banana\n")
        assert program is None
        err = errors_of(diags)[0]
        assert "malformed number" in err.message
        assert err.column == 6

    def test_non_finite_number_rejected(self):
        program, diags = parse("wait T=nan\n")
        assert program is None

    def test_malformed_integer(self):
        program, diags = parse("ions N=2.5\n")
        assert program is None
        assert "malformed integer" in errors_of(diags)[0].message

    def test_duplicate_header(self):
        program, diags = parse("ions N=2\nions N=3\n")
        assert program is None
        err = errors_of(diags)[0]
        assert err.line == 2 and "duplicate" in err.message

    def test_unknown_mode(self):
        program, diags = parse("ions N=1\njc_pi ion=1 n=0 mode=sloppy\n")
        assert program is None
        assert "unknown mode" in errors_of(diags)[0].message

    def test_mode_is_read_as_written(self):
        program, diags = parse("ions N=1\njc_pi ion=1 n=0 mode=Physical\n")
        assert program is None
        [error] = errors_of(diags)
        assert (error.line, error.column) == (2, 17)
        assert error.message == "unknown mode 'Physical' (expected ideal or physical)"
        program, _ = parse("ions N=1\njc_pi ion=1 n=0 mode=physical\n")
        assert program.steps[0].mode is PulseMode.PHYSICAL

    def test_ion_out_of_range(self):
        program, diags = parse("ions N=2\ncarrier_pi2 ion=5\n")
        assert program is None
        assert "out of range" in errors_of(diags)[0].message

    def test_ion_count_beyond_physical_memory(self):
        # the program parses and runs in the sector; only the step that needs the whole array is refused, at its position
        program, diags = parse("ions N=40\ncarrier_pi2 ion=40\n  carrier_pi2 ion=1\n")
        assert program is not None and diags == []
        with pytest.raises(SequenceError) as error:
            execute(program)
        assert (error.value.line, error.value.column) == (3, 3)
        assert f"need {5 * 2**40 * 16 + 9 * 2**40} B" in str(error.value) and "physical memory" in str(error.value)

    @pytest.mark.parametrize("n_ions", [2000, 20000])
    def test_huge_ion_count_fails_at_the_step_that_lifts(self, n_ions):
        program, diags = parse(f"# far too many\nions   N={n_ions}\ncarrier_pi2 ion=1\n")
        assert program is not None and diags == []
        with pytest.raises(SequenceError) as error:
            execute(program)
        assert (error.value.line, error.value.column) == (3, 1)
        assert f"at least 2^{n_ions + 2} amplitudes" in str(error.value) and "physical memory" in str(error.value)

    @pytest.mark.parametrize(
        "source, n_ions",
        [
            ("# c\ntrap nmax=99999999999\nwait T=1\n", 1),
            ("trap eta=0.2 nmax=99999999999\nions  N=3\nwait T=1\n", 3),
        ],
        ids=["no-ions-header", "ions-header"],
    )
    def test_level_count_beyond_physical_memory_is_refused_by_the_ground_state(self, source, n_ions):
        program, diags = parse(source)
        assert program is not None and diags == []
        with pytest.raises(SimulationError, match=rf"^{2 * n_ions * 10**11} amplitudes need .*physical memory") as error:
            execute(program)
        assert not isinstance(error.value, SequenceError)  # before any step

    def test_sideband_beyond_cutoff(self):
        program, diags = parse("trap nmax=2\njc_pi ion=1 n=2\n")
        assert program is None
        assert "cutoff" in errors_of(diags)[0].message

    def test_missing_required_argument(self):
        program, diags = parse("jc_pi ion=1\n")
        assert program is None
        assert "requires" in errors_of(diags)[0].message

    def test_unknown_argument(self):
        program, diags = parse("wait T=1.0 speed=9\n")
        assert program is None
        assert "unknown argument" in errors_of(diags)[0].message

    def test_bare_word_rejected(self):
        program, diags = parse("carrier_pi2 ion\n")
        assert program is None
        assert "key=value" in errors_of(diags)[0].message

    @pytest.mark.parametrize(
        "source, position, message",
        [
            ("ions N=2\njc_pi ion=1 n=0 ion=2\n", (2, 17), "duplicate argument 'ion'"),
            ("frame X\nwait T=1.0\n", (1, 7), "frame requires R or Rprime"),
            ("wait T=1.0\nframe\n", (2, 1), "frame requires R or Rprime"),
            # a missing required argument next to an optional one
            ("jc_pi ion=1 mode=ideal\n", (1, 1), "jc_pi requires n="),
            ("carrier_pi2 phase=0.1\n", (1, 1), "carrier_pi2 requires ion="),
            ("disp_pi all mode=physical\n", (1, 1), "disp_pi all requires n="),
            ("ions N=2\n\t  jc_pi mode=ideal ion=2\n", (2, 4), "jc_pi requires n="),
        ],
        ids=["duplicate-argument", "frame-tag", "frame-alone", "jc-n", "carrier-ion", "collective-n", "indented-jc-n"],
    )
    def test_statement_diagnostic_at_its_token(self, source, position, message):
        program, diags = parse(source)
        assert program is None
        [err] = errors_of(diags)
        assert ((err.line, err.column), err.message) == (position, message)

    def test_frame_r_takes_no_arguments(self):
        program, diags = parse("frame R delta=0.1\nwait T=1.0\n")
        assert program is None

    def test_multiple_errors_reported_in_order(self):
        program, diags = parse("bogus\nwait T=x\ndisp_pi all n=0\n")
        errs = errors_of(diags)
        assert program is None
        assert [e.line for e in errs] == [1, 2, 3]

    def test_wait_zero_allowed(self):
        program, diags = parse("wait T=0.0\n")
        assert errors_of(diags) == []
        assert program.steps[0].duration == 0.0

    def test_wait_negative_rejected(self):
        program, diags = parse("wait T=-2.0\n")
        assert program is None

    @pytest.mark.parametrize(
        "source, position, field",
        [
            ("ions N=0\n", (1, 6), "n_ions"),
            ("wait T=1.0\ntrap nmax=0\n", (2, 6), "fock_cutoff"),
            ("wait T=1.0\ntrap eta=0.2 nu=0\n", (2, 14), "trap_freq"),
            ("trap   eta=-1\n", (1, 8), "lamb_dicke"),
            ("ions N=2\ntrap nu=2 rabi=-1 nmax=3\n", (2, 11), "base_rabi"),
        ],
        ids=["N", "nmax", "nu", "eta", "rabi"],
    )
    def test_bad_header_value_reported_at_its_token(self, source, position, field):
        program, diags = parse(source)
        assert program is None
        [err] = errors_of(diags)
        assert (err.line, err.column) == position
        assert field in err.message

    def test_zero_lamb_dicke_runs_carrier_and_wait_steps(self):
        program, diags = parse("ions N=2\ntrap eta=0\ncarrier_pi2 ion=1\nwait T=1.0\ncarrier_pi2 ion=1\n")
        assert errors_of(diags) == []
        assert program.params.lamb_dicke == 0.0
        final, trace = execute(program)
        assert len(trace) == 3
        assert excited_population(final, 1) == pytest.approx(1.0, abs=1e-12)

    def test_sideband_under_zero_lamb_dicke_rejected_at_the_step(self):
        program, diags = parse("ions N=2\ntrap eta=0\ncarrier_pi2 ion=1\n  jc_pi ion=1 n=0\n")
        assert program is None
        [err] = errors_of(diags)
        assert (err.line, err.column) == (4, 3)
        assert "Rabi frequency must be positive" in err.message


class TestFormat:
    def test_canonical_round_trip(self):
        program, _ = parse(CANONICAL_3)
        text = format_program(program)
        assert "#" not in text
        reparsed, diags = parse(text)
        assert errors_of(diags) == []
        assert reparsed == program

    def test_idempotent(self):
        program, _ = parse(CANONICAL_3)
        text = format_program(program)
        assert format_program(parse(text)[0]) == text

    def test_carrier_phase_survives(self):
        program, _ = parse("ions N=2\ncarrier_pi2 ion=2 phase=-0.125\n")
        text = format_program(program)
        assert "phase=-0.125" in text
        assert parse(text)[0] == program

    def test_physical_mode_survives(self):
        program, _ = parse("ions N=2\ntrap nmax=3\njc_pi ion=1 n=1 mode=physical\n")
        text = format_program(program)
        assert "mode=physical" in text
        assert parse(text)[0] == program

    @pytest.mark.parametrize(
        "spec",
        [
            PulseSpec(PulseKind.JC_PI, target_ion=3, target_n=0, laser_phase=0.5),
            PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=3, target_n=1, laser_phase=0.5),
            PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, laser_phase=0.5),
        ],
        ids=["jc_pi", "disp_pi", "disp_pi-all"],
    )
    def test_phase_no_statement_can_write_is_an_error(self, spec):
        program = SequenceProgram(make_params(3), Frame(), [PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=3), spec])
        with pytest.raises(ValueError, match=r"^step 2 \(\w+( all)?\): laser_phase=0\.5 "):
            format_program(program)

    @pytest.mark.parametrize(
        "spec",
        [
            PulseSpec(PulseKind.WAIT, duration=1.0, laser_phase=float("nan")),
            PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1, laser_phase=float("inf")),
            PulseSpec(PulseKind.JC_PI, target_ion=3, target_n=0, laser_phase=float("-inf")),
        ],
        ids=["wait-nan", "carrier-inf", "jc_pi-minus-inf"],
    )
    def test_non_finite_phase_is_an_error(self, spec):
        # execute rejects each of these steps, so no formatted program may run it
        program = SequenceProgram(make_params(3), Frame(), [PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=3), spec])
        with pytest.raises(SequenceError, match="^0:0: error: laser_phase must be finite"):
            execute(program)
        with pytest.raises(ValueError, match=r"^step 2 \(\w+\): laser_phase must be finite, got "):
            format_program(program)

    def test_fields_the_run_ignores_are_dropped(self):
        # preparation_sequence sets a carrier's mode; a wait's mode and a collective target_ion do nothing either
        steps = [
            *preparation_sequence(make_params(3), "physical"),
            PulseSpec(PulseKind.WAIT, duration=1.5, mode=PulseMode.PHYSICAL),
            PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_ion=2, target_n=1),
        ]
        program = SequenceProgram(make_params(3), Frame(), steps)
        reparsed, diags = parse(format_program(program))
        assert errors_of(diags) == []
        assert format_program(reparsed) == format_program(program)
        assert execute(reparsed)[1] == execute(program)[1]


def program_strategy():
    def build(draw):
        n_ions = draw(st.integers(1, 5))
        nmax = draw(st.integers(2, 6))
        positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
        params = TrapParams(
            n_ions=n_ions,
            trap_freq=draw(positive),
            lamb_dicke=draw(st.floats(1e-3, 0.999, allow_nan=False)),
            base_rabi=draw(positive),
            fock_cutoff=nmax,
        )
        if draw(st.booleans()):
            frame = Frame(FRAME_R)
        else:
            frame = Frame(FRAME_R_PRIME, detuning=draw(st.floats(-1, 1, allow_nan=False)))
        steps = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(list(PulseKind)))
            ion = draw(st.integers(1, n_ions))
            mode = draw(st.sampled_from(list(PulseMode)))
            if kind is PulseKind.CARRIER_PI_HALF:
                steps.append(
                    PulseSpec(kind, target_ion=ion, laser_phase=draw(st.floats(-10, 10, allow_nan=False)))
                )
            elif kind is PulseKind.JC_PI:
                steps.append(PulseSpec(kind, target_ion=ion, target_n=draw(st.integers(0, nmax - 1)), mode=mode))
            elif kind is PulseKind.DISPERSIVE_SINGLE_PI:
                steps.append(PulseSpec(kind, target_ion=ion, target_n=draw(st.integers(1, nmax)), mode=mode))
            elif kind is PulseKind.DISPERSIVE_COLLECTIVE_PI:
                steps.append(PulseSpec(kind, target_n=draw(st.integers(1, nmax)), mode=mode))
            else:
                steps.append(PulseSpec(kind, duration=draw(st.floats(0, 1e4, allow_nan=False))))
        return SequenceProgram(params, frame, steps, [])

    return st.composite(build)()


GRAMMAR_WORDS = [
    "ions", "trap", "frame", "R", "Rprime", "carrier_pi2", "jc_pi", "disp_pi", "all", "wait",
    "N=0", "N=2", "N=40", "nu=1", "nu=0", "eta=-1", "rabi=2", "nmax=0", "nmax=3", "delta=0.1", "delta=inf",
    "ion=1", "ion=2", "ion=", "n=0", "n=1", "n=9", "mode=x", "mode=physical", "phase=0.5", "T=1", "T=nan",
    "=", "#c", "bogus",
]


def grammar_text():
    """Lines of grammar words, indented and separated by space, tab, no-break space or \\x1c."""
    gap = st.lists(st.sampled_from([" ", "\t", "\xa0", "\x1c"]), max_size=2).map("".join)
    line = st.tuples(gap, st.lists(st.tuples(st.sampled_from(GRAMMAR_WORDS), gap), max_size=6)).map(
        lambda parts: parts[0] + "".join(word + (after or " ") for word, after in parts[1])
    )
    return st.lists(line, max_size=6).map("\n".join)


def assert_errors_point_at_words(source):
    """Parsing never raises, and each error's column is that of a word before any ``#`` on its line."""
    program, diags = parse(source)
    if program is None:
        assert any(d.severity == "error" for d in diags)
    lines = source.splitlines()
    for d in errors_of(diags):
        assert 1 <= d.line <= len(lines)
        code = lines[d.line - 1].partition("#")[0]
        assert d.column - 1 in [word.start() for word in re.finditer(r"\S+", code)]


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(program_strategy())
    def test_parse_format_identity(self, program):
        text = format_program(program)
        reparsed, diags = parse(text)
        assert errors_of(diags) == []
        assert reparsed == program
        assert format_program(reparsed) == text

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_parse_total_on_arbitrary_text(self, source):
        assert_errors_point_at_words(source)

    @settings(max_examples=300, deadline=None)
    @given(grammar_text())
    def test_parse_total_on_grammar_words(self, source):
        assert_errors_point_at_words(source)


class TestExecute:
    def test_canonical_equals_builtin_preparation(self):
        program, _ = parse(CANONICAL_3)
        final, trace = execute(program)
        report = prepare_max_entangled(program.params)
        assert np.max(np.abs(final.amplitudes - report.final_state.amplitudes)) <= 1e-12
        assert final.clock == report.final_state.clock
        assert fidelity(final, target_ghz(program.params)) >= 1 - 1e-12
        assert len(trace) == 5
        assert trace[-1].fock_populations[0] == pytest.approx(1.0, abs=1e-12)

    def test_trace_records_clock_norm_marginal(self):
        program, _ = parse(CANONICAL_3)
        _, trace = execute(program)
        clocks = [t.clock for t in trace]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))
        for entry in trace:
            assert entry.norm == pytest.approx(1.0, abs=1e-12)
            assert len(entry.fock_populations) == program.params.n_levels

    def test_wait_only_program_is_pure_phase(self):
        # one vibrational quantum for time T = 1/nu: amplitude phase exp(-i)
        program, _ = parse("ions N=1\nwait T=1.0\n")
        initial = dicke_extreme(program.params, "lowest", 1)
        final, _ = execute(program, initial)
        assert final.amplitude(0, 1) == pytest.approx(np.exp(-1j), abs=1e-15)
        assert initial.amplitude(0, 1) == 1.0  # input not mutated

    def test_mirror_program_round_trip(self):
        source = """\
ions N=2
carrier_pi2 ion=2
jc_pi ion=2 n=0
disp_pi all n=1
disp_pi ion=2 n=1
jc_pi ion=2 n=0
wait T=0.0
jc_pi ion=2 n=0
disp_pi ion=2 n=1
disp_pi all n=1
jc_pi ion=2 n=0
carrier_pi2 ion=2
"""
        program, diags = parse(source)
        assert errors_of(diags) == []
        final, _ = execute(program)
        assert excited_population(final, 2) <= 1e-10
        assert excited_population(final, 1) <= 1e-10

    def test_initial_params_must_match(self):
        program, _ = parse(CANONICAL_3)
        with pytest.raises(ValueError):
            execute(program, dicke_extreme(make_params(2), "lowest", 0))

    def test_runtime_failure_carries_position(self):
        # pushing population into the top Fock level trips the honesty guard
        source = "ions N=1\ntrap nmax=4\njc_pi ion=1 n=3\n"
        program, diags = parse(source)
        assert errors_of(diags) == []
        seeded = dicke_extreme(program.params, "highest", 3)
        with pytest.raises(SequenceError) as info:
            execute(program, seeded)
        assert info.value.line == 3
        assert "3:1: error:" in str(info.value)


EDITABLE = """\
ions N=3
trap nmax=4
carrier_pi2 ion=3
wait T=2.5
jc_pi ion=3 n=3
disp_pi all n=1
"""


def swap_step(index, spec):
    def edit(program):
        program.steps[index] = spec
        return program

    return edit


class TestEditedProgram:
    """A parsed program changed afterwards has its changed steps validated as they run."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: replace(p, params=replace(p.params, fock_cutoff=3)),
             "5:1: error: sideband pulse on n=3 reaches Fock level 4 beyond the cutoff 3"),
            (lambda p: replace(p, params=replace(p.params, n_ions=2)),
             "3:1: error: target ion 3 out of range [1, 2]"),
            (swap_step(3, PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=0)),
             "6:1: error: dispersive pulse requires target_n >= 1 (its Rabi frequency is zero at n = 0)"),
            (swap_step(1, PulseSpec(PulseKind.WAIT, duration=-1.0)),
             "4:1: error: wait requires a finite duration >= 0, got -1.0"),
            (swap_step(0, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=3, duration=1.0)),
             "3:1: error: pulse durations are derived from Rabi frequencies; leave duration unset"),
            (swap_step(2, PulseSpec(PulseKind.JC_PI, target_ion=3, target_n=-1)),
             "5:1: error: sideband target_n must be >= 0, got -1"),
            (swap_step(3, PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=3, target_n=5)),
             "6:1: error: dispersive target_n 5 beyond the cutoff 4"),
        ],
        ids=["smaller-nmax", "fewer-ions", "swapped-step", "swapped-wait", "pulse-duration", "sideband-n-1", "dispersive-n-5"],
    )
    def test_now_invalid_step_gets_its_positioned_error(self, edit, message):
        program, diags = parse(EDITABLE)
        assert errors_of(diags) == []
        edited = edit(program)
        with pytest.raises(SequenceError) as info:
            execute(edited)
        assert str(info.value) == message

    def test_appended_steps_run_and_an_invalid_one_fails_at_0_0(self):
        program, _ = parse("carrier_pi2 ion=1\n")
        program.steps += [PulseSpec(PulseKind.WAIT, duration=1.0), PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=9)]
        with pytest.raises(SequenceError) as info:
            execute(program)
        assert str(info.value) == "0:0: error: sideband pulse on n=9 reaches Fock level 10 beyond the cutoff 4"

    def test_an_appended_wait_runs(self):
        program, _ = parse("carrier_pi2 ion=1\n")
        program.steps.append(PulseSpec(PulseKind.WAIT, duration=1.0))
        _, trace = execute(program)
        assert len(trace) == len(program.steps)
        assert trace[-1].clock == pytest.approx(np.pi / 2 + 1.0)

    def test_hand_built_program_is_validated(self):
        program = SequenceProgram(make_params(2), Frame(), [PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=4)])
        with pytest.raises(SequenceError, match="^0:0: error: sideband pulse on n=4"):
            execute(program)

    def test_still_valid_edits_run_as_a_fresh_parse(self):
        program, _ = parse(EDITABLE)
        edited = replace(program, params=replace(program.params, fock_cutoff=6))
        edited.steps[0] = PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=2, laser_phase=0.5)
        fresh, _ = parse(EDITABLE.replace("nmax=4", "nmax=6").replace("carrier_pi2 ion=3", "carrier_pi2 ion=2 phase=0.5"))
        final, trace = execute(edited)
        expected, expected_trace = execute(fresh)
        assert final.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert trace == expected_trace

