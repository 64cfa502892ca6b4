"""The runners carry the Fock window from step to step instead of finding it again.

``protocol._run_steps`` (the preparation's loop, and ``seqlang.execute``'s)
and ``protocol._run_rows`` (the scan's) start from a known window and move
it on with ``hilbert._fock_top`` fed the step's populations, which the
pulse's guard hands back; a ``_run_steps`` step that writes no amplitude
hands back the last populations and keeps the window.  After every step
that window must equal what ``hilbert._fock_top`` finds from scratch, and
every step state, final state and scan row must be byte-equal to a plain
loop of window-less pulse calls.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpulse import (
    Frame,
    PulseKind,
    PulseMode,
    PulseSpec,
    RamseyConfig,
    SimulationError,
    StateVector,
    apply_pulse,
    dense_matrix,
    flat_index,
    fock_populations,
    ground_state,
    pulse_duration,
)
from ionpulse import hilbert, protocol, pulses, seqlang
from ionpulse.hilbert import _fock_top
from ionpulse.seqlang import parse
from conftest import count_calls, dicke_extreme, make_params, planned_step


def track_windows(monkeypatch):
    """Record the window every step of the runners leaves, each checked against ``_fock_top`` from scratch.

    That is the window a runner takes from the step's populations, or the
    one a step that wrote no amplitude kept: its kernel handed back the
    populations it was given.
    """
    seen = []

    def checked(amplitudes, params, known=None):
        new = hilbert._fock_top(amplitudes, params, known)
        if known is not None:  # after a step; a call without populations finds a start window
            assert new == _fock_top(amplitudes, params), known
            seen.append(new)
        return new

    def stepping(amplitudes, params, spec, t0, detuning, duration, top, check_leakage=True, known=None):
        levels = step_rows(amplitudes, params, spec, t0, detuning, duration, top, check_leakage, known)
        if known is not None and levels is known:
            assert top == _fock_top(amplitudes, params), known
            seen.append(top)
        return levels

    step_rows = pulses._step_rows
    for module in (protocol, seqlang):
        monkeypatch.setattr(module, "_fock_top", checked)
    monkeypatch.setattr(pulses, "_step_rows", stepping)
    return seen


@pytest.fixture
def windows(monkeypatch):
    return track_windows(monkeypatch)


def step_text(draw, n_ions, nmax):
    kind = draw(st.sampled_from(["carrier_pi2", "jc_pi", "disp_pi", "disp_pi all", "wait"]))
    mode = draw(st.sampled_from(["ideal", "physical"]))
    ion = draw(st.integers(1, n_ions))
    if kind == "carrier_pi2":
        return f"carrier_pi2 ion={ion} phase={draw(st.sampled_from([0.0, 0.4, -2.5]))}"
    if kind == "jc_pi":
        return f"jc_pi ion={ion} n={draw(st.integers(0, nmax - 1))} mode={mode}"
    if kind == "disp_pi":
        return f"disp_pi ion={ion} n={draw(st.integers(1, nmax))} mode={mode}"
    if kind == "disp_pi all":
        return f"disp_pi all n={draw(st.integers(1, nmax))} mode={mode}"
    return f"wait T={draw(st.sampled_from([0.0, 0.7, 1e5, 1e9]))}"


@st.composite
def programs(draw):
    n_ions, nmax = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    frame = draw(st.sampled_from(["frame R", "frame Rprime delta=0.003"]))
    lines = [f"ions N={n_ions}", f"trap nu=1.3 eta=0.11 rabi=0.9 nmax={nmax}", frame]
    lines += [step_text(draw, n_ions, nmax) for _ in range(draw(st.integers(1, 25)))]
    program, diagnostics = parse("\n".join(lines) + "\n")
    assert program is not None, diagnostics
    return program


def plain_steps(state, specs):
    """Each step state of window-less ``apply_pulse`` calls, up to the first step that raises."""
    states = []
    for spec in specs:
        try:
            apply_pulse(state, spec)
        except SimulationError:
            break
        states.append(state.amplitudes.copy())
    return states


def assert_bytes_equal(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestSeqlang:
    @settings(max_examples=120)
    @given(program=programs(), excited=st.booleans())
    def test_program_steps_equal_window_less_steps(self, program, excited):
        p = program.params
        initial = dicke_extreme(p, "highest", fock_n=1, frame=program.frame) if excited else None
        want = plain_steps(initial.copy() if excited else ground_state(p, program.frame), program.steps)
        handed, steps = [], []

        def recording(state, spec, **kwargs):
            handed.append(kwargs["top"])
            assert kwargs["top"] == _fock_top(state.amplitudes, p)
            record = pulses.apply_pulse(state, spec, **kwargs)
            steps.append(state.amplitudes.copy())
            return record

        with pytest.MonkeyPatch.context() as monkeypatch:
            windows = track_windows(monkeypatch)
            monkeypatch.setattr(protocol, "apply_pulse", recording)
            try:
                final, trace = seqlang.execute(program, initial)
            except seqlang.SequenceError:
                assert len(want) < len(program.steps)  # the plain loop stopped at the same step
            else:
                assert len(want) == len(trace) == len(windows) == len(program.steps)
                assert final.amplitudes.tobytes() == want[-1].tobytes()
        assert_bytes_equal(steps[: len(want)], want)
        assert handed[1:] == windows[: len(handed) - 1]  # each step gets the window the last one left


class TestPreparation:
    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("nmax", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_ions", range(1, 7))
    def test_step_states_equal_window_less_steps(self, windows, n_ions, nmax, mode):
        p = make_params(n_ions, nmax=nmax, nu=1.3, eta=0.11, rabi=0.9)
        report = protocol.prepare_max_entangled(p, mode)
        state = ground_state(p)
        want = []
        for spec in protocol.preparation_sequence(p, mode):
            apply_pulse(state, spec)
            want.append(state.copy())
        assert_bytes_equal([s.amplitudes for s in report.step_states], [s.amplitudes for s in want])
        assert report.final_state.amplitudes.tobytes() == state.amplitudes.tobytes()
        assert windows == [_fock_top(s.amplitudes, p) for s in want] == [0, 1, 1, 1, 0]


def plain_scan_rows(config, deltas):
    """The Ramsey scheme's final rows from window-less ``planned_step`` calls, chunk by chunk.

    Chunks and the prepare-once row follow ``_ramsey_rows``: the rounding
    of a ufunc can depend on the shape of the array it runs on.
    """
    p = config.params
    specs = protocol.preparation_sequence(p, config.mode)
    wait = PulseSpec(PulseKind.WAIT, duration=config.wait_time)

    def run(rows, steps, clock, detunings, kick):
        for spec in steps:
            duration, _ = planned_step(rows, p, spec, clock, detunings)
            clock = clock + duration
            if kick is not None and spec.kind is not PulseKind.WAIT and np.count_nonzero(kick):
                pulses._check_detuning_phase(float(np.abs(kick).max()), duration, p.n_ions)
                pulses._detuning_phase(rows, p, kick, duration, _fock_top(rows, p))
        return clock

    start = ground_state(p).amplitudes[None, :]
    prepared = start.copy()
    prepared_at = run(prepared, specs, 0.0, 0.0, None)
    chunk = protocol._chunk_rows(p)
    out = []
    for block in np.split(deltas, range(chunk, deltas.size, chunk)):
        if config.detuning_during_pulses:
            rows = np.repeat(start, block.size, axis=0)
            clock = run(rows, specs, 0.0, 0.0, block)
        else:
            rows, clock = np.repeat(prepared, block.size, axis=0), prepared_at
        kick = block if config.detuning_during_pulses else None
        clock = run(rows, [wait, *specs[::-1]], clock, block, kick)
        out.append(rows)
    return np.concatenate(out), clock


class TestScan:
    @pytest.mark.parametrize("during", [False, True])
    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("wait", [0.0, 1e5, 1e9])
    @pytest.mark.parametrize("n_ions", [1, 3, 6])
    def test_scan_rows_equal_window_less_rows(self, monkeypatch, windows, n_ions, wait, mode, during):
        p = make_params(n_ions, nmax=3, nu=1.3, eta=0.11, rabi=0.9)
        monkeypatch.setattr(protocol, "SCAN_CHUNK_BYTES", 2 * p.dim * 16)  # chunks of two rows and a short last one
        scale = 1.0 / (n_ions * max(wait, 1e5))  # inside the validity window at every wait
        deltas = np.linspace(-scale, scale, 5)
        config = RamseyConfig(p, wait, tuple(deltas), mode, during)
        chunks = protocol._ramsey_rows(config, deltas, lambda rows, clock: (rows.copy(), clock))
        want, clock = plain_scan_rows(config, deltas)
        assert np.concatenate([rows for rows, _ in chunks]).tobytes() == want.tobytes()
        assert {c for _, c in chunks} == {clock}
        assert windows and windows[-1] == 0


def copying_steps(monkeypatch):
    """Copy the state each step of ``seqlang.execute`` leaves."""
    states = []

    def copying(state, spec, **kwargs):
        record = pulses.apply_pulse(state, spec, **kwargs)
        states.append(state.copy())
        return record

    monkeypatch.setattr(protocol, "apply_pulse", copying)
    return states


def assert_records_read_the_step_states(trace, states, windows):
    """Each record equals, bit for bit, a ``fock_populations`` read of its step state, and each window ``_fock_top``'s."""
    assert len(trace) == len(states) == len(windows)
    for entry, state, window in zip(trace, states, windows):
        levels = fock_populations(state)
        assert np.array(entry.fock_populations).tobytes() == levels.tobytes()
        assert np.float64(entry.norm).tobytes() == np.float64(math.sqrt(levels.sum())).tobytes()
        assert window == _fock_top(state.amplitudes, state.params)


class TestRecord:
    @settings(max_examples=120)
    @given(program=programs(), mode=st.sampled_from(list(PulseMode)))
    def test_step_records_equal_fock_populations_of_each_step_state(self, program, mode):
        program = dataclasses.replace(program, steps=[dataclasses.replace(s, mode=mode) for s in program.steps])
        with pytest.MonkeyPatch.context() as monkeypatch:
            windows, states = track_windows(monkeypatch), copying_steps(monkeypatch)
            try:
                _, trace = seqlang.execute(program)
            except seqlang.SequenceError:
                return  # no trace to check: the step that raised left no record
        assert len(trace) == len(program.steps)
        assert_records_read_the_step_states(trace, states, windows)

    def test_a_level_of_1e300_alone_stays_in_the_window(self, windows, monkeypatch):
        # its population squares to 0.0, so the window must read its amplitudes
        p = make_params(3, nmax=4)
        amplitudes = np.zeros(p.dim, dtype=complex)
        amplitudes[0], amplitudes[flat_index(p, 0b101, 2)] = 1.0, 1e-300
        initial = StateVector(amplitudes, p, Frame())
        program, _ = parse("ions N=3\ntrap nmax=4\nwait T=0.7\ncarrier_pi2 ion=1\ndisp_pi ion=2 n=1\n")
        states = copying_steps(monkeypatch)
        final, trace = seqlang.execute(program, initial)
        assert windows == [2, 2, 2]
        assert [entry.fock_populations[2] for entry in trace] == [0.0, 0.0, 0.0]
        assert_records_read_the_step_states(trace, states, windows)
        want = plain_steps(initial.copy(), program.steps)
        assert final.amplitudes.tobytes() == want[-1].tobytes()
        assert final.amplitudes[flat_index(p, 0b101, 2)] != 1e-300  # the free phase reached it

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["one-state", "rows"])
    def test_a_nan_level_counts_as_nonzero(self, shape):
        p = make_params(2, nmax=4)
        rows = np.zeros(shape + (p.dim,), dtype=complex)
        rows[..., 0] = 1.0
        rows[..., flat_index(p, 0b01, 3)] = math.nan
        known = hilbert.populations(hilbert.levels_view(rows, p))
        assert np.isnan(known[..., 3]).all() and (known[..., 4] == 0).all()
        assert _fock_top(rows, p, known=known) == _fock_top(rows, p) == 3
        rows[..., 3 * p.n_configs :] = 0.0  # the populations decide level 3 without reading it
        assert _fock_top(rows, p, known=known) == 3


#: A program's steps, each with whether its kernel runs the guard pass in frame R: a step that writes no
#: amplitude hands back the populations it was given, and only the first step is given none.
GUARDS = [
    ("wait T=1.5", True),  # the first step always guards
    ("jc_pi ion=2 n=2", False),  # an empty angle table at window 0
    ("wait T=2.5", False),  # window 0: level 0 takes no free phase, and frame R no detuning phase
    ("disp_pi all n=1", False),
    ("disp_pi ion=3 n=1 mode=physical", False),
    ("wait T=0.0", False),
    ("carrier_pi2 ion=3", True),
    ("jc_pi ion=3 n=0", True),  # window 1 from here on
    ("wait T=0.0", False),  # a zero wait writes nothing at any window
    ("wait T=2.0", True),
    ("jc_pi ion=1 n=3", True),  # an empty table, but window 1 takes its free phase
    ("disp_pi all n=1", True),
]


class TestStepsThatWriteNothing:
    @pytest.mark.parametrize("frame, detuned", [("frame R", 0), ("frame Rprime delta=0.001", 1)], ids=["R", "Rprime"])
    def test_one_guard_pass_per_step_that_writes(self, frame, detuned):
        # in frame R' the wait at window 0 takes its detuning phase, so it writes
        source = "\n".join(["ions N=3", "trap nmax=4", frame, *(line for line, _ in GUARDS)]) + "\n"
        program, diagnostics = parse(source)
        assert not diagnostics
        runs = []
        assert count_calls(pulses._check_rows, lambda: runs.append(seqlang.execute(program))) == sum(g for _, g in GUARDS) + detuned
        [(final, trace)] = runs
        want = plain_steps(ground_state(program.params, program.frame), program.steps)
        assert final.amplitudes.tobytes() == want[-1].tobytes()
        assert [t.fock_populations for t in trace[1:6]] == [trace[0].fock_populations] * 5

    def test_ideal_sideband_above_the_window_touches_nothing(self, monkeypatch):
        # nu * t_p puts the free phase of level 1 in the left half-plane, where it would turn +0.0 into -0.0
        p = make_params(2, nu=1.3)
        spec = PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=2)
        state = ground_state(p)
        before = state.amplitudes.tobytes()
        duration, levels = apply_pulse(state, spec, top=0)
        assert math.cos(p.trap_freq * duration) < 0
        assert levels.tolist() == [1.0]  # the guard read window 0 alone
        assert state.amplitudes.tobytes() == before
        records = []

        def recording(state, spec, **kwargs):
            record = pulses.apply_pulse(state, spec, **kwargs)
            records.append(record[1])
            return record

        program, _ = parse("ions N=2\ntrap nu=1.3\njc_pi ion=1 n=2\nwait T=0.5\n")
        windows = track_windows(monkeypatch)
        monkeypatch.setattr(protocol, "apply_pulse", recording)
        final, _ = seqlang.execute(program)
        assert [r.tolist() for r in records] == [[1.0], [1.0]] and windows == [0, 0]
        assert final.amplitudes.tobytes() == before

    def test_a_step_that_lifts_the_sector_reads_the_whole_array(self, monkeypatch):
        # a sector state's populations and those of its whole array may differ in their last bits
        p = make_params(5)
        levels = np.zeros((p.n_levels, 2 * p.n_ions), dtype=complex)
        real, imag = np.random.default_rng(1).standard_normal((2, 2 * p.n_ions))
        levels[0] = real + 1j * imag
        levels /= math.sqrt(hilbert.populations(levels.reshape(-1)))
        initial = StateVector._sector(levels, p, Frame(), 0.0)
        program, _ = parse("ions N=5\nwait T=1.0\ncarrier_pi2 ion=1\n")  # a wait stays in the sector, a turn on ion 1 lifts it
        windows, states = track_windows(monkeypatch), copying_steps(monkeypatch)
        _, trace = seqlang.execute(program, initial)
        assert fock_populations(states[0]).tobytes() != fock_populations(states[1]).tobytes()
        assert_records_read_the_step_states(trace, states, windows)

    @pytest.mark.parametrize("n_ions", range(1, 6))
    def test_a_sideband_whose_pair_holds_zeros_writes_nothing(self, n_ions):
        # Ion 1 stays in |g>, so at window 0 the one pair (|g,1>, |e,0>) of a sideband on it holds only zeros:
        # it takes no guard pass, its dump keeps +0.0 where turning that pair wrote -0.0, and it is still the unitary.
        head = [f"ions N={n_ions}", "trap nu=1.3 eta=0.11 rabi=0.9 nmax=3", "wait T=0.5", *[f"carrier_pi2 ion={n_ions}"][: n_ions > 1]]
        before, _ = seqlang.execute(parse("\n".join(head) + "\n")[0])
        program, diagnostics = parse("\n".join([*head, "jc_pi ion=1 n=0 mode=physical"]) + "\n")
        assert not diagnostics
        runs = []
        assert count_calls(pulses._check_rows, lambda: runs.append(seqlang.execute(program))) == len(program.steps) - 1
        [(final, _)] = runs
        p, spec = program.params, program.steps[-1]
        assert _fock_top(final.amplitudes, p) == 0 and final.amplitudes.tobytes() == before.amplitudes.tobytes()
        turned = before.amplitudes.copy()
        table = pulses._angle_table(spec.kind, spec.mode, spec.target_n, p.n_levels, 0)
        pulses._rotate_one_ion(turned, p, 1, table, 1, 1j * np.exp(1j * p.trap_freq * before.clock))
        pulses._apply_free_phases(turned, p, pulse_duration(spec, p), 1)
        parts, kept = turned[:, None].view(np.float64), final.amplitudes[:, None].view(np.float64)
        negative_zeros = (parts == 0) & np.signbit(parts)
        assert negative_zeros.any() and np.array_equal(turned, final.amplitudes)
        assert not np.signbit(kept[negative_zeros]).any()
        assert not re.search(r"-0\.0(?![0-9e])", final.dump_json())
        vector, t0 = ground_state(p).amplitudes, 0.0
        for step in program.steps:
            vector = dense_matrix(step, p, t0) @ vector
            t0 = t0 + pulse_duration(step, p)
        assert final.clock == t0 and np.max(np.abs(final.amplitudes - vector)) <= 1e-12
