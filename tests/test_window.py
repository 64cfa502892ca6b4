"""The runners carry the Fock window from step to step instead of finding it again.

``protocol._run_sequence``, ``protocol._run_rows`` and ``seqlang.execute``
start from a known window and move it on with ``pulses._window_after``.
After every step that window must equal what ``hilbert._fock_top`` finds
from scratch, and every step state, final state and scan row must be
byte-equal to a plain loop of window-less pulse calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpulse import PulseKind, PulseMode, PulseSpec, RamseyConfig, SimulationError, apply_pulse, ground_state
from ionpulse import protocol, pulses, seqlang
from ionpulse.hilbert import _fock_top, dicke_extreme
from ionpulse.pulses import apply_detuning_phase, apply_pulse_rows
from ionpulse.seqlang import parse
from conftest import make_params


def track_windows(monkeypatch):
    """Record every window the runners compute, each checked against ``_fock_top`` from scratch."""
    seen = []

    def checked(amplitudes, params, spec, top):
        new = pulses._window_after(amplitudes, params, spec, top)
        assert new == _fock_top(amplitudes, params), spec
        seen.append(new)
        return new

    for module in (protocol, seqlang):
        monkeypatch.setattr(module, "_window_after", checked)
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
            pulses.apply_pulse(state, spec, **kwargs)
            steps.append(state.amplitudes.copy())
            return state

        with pytest.MonkeyPatch.context() as monkeypatch:
            windows = track_windows(monkeypatch)
            monkeypatch.setattr(seqlang, "apply_pulse", recording)
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
    """The Ramsey scheme's final rows from window-less ``apply_pulse_rows`` calls, chunk by chunk.

    Chunks and the prepare-once row follow ``_ramsey_rows``: the rounding
    of a ufunc can depend on the shape of the array it runs on.
    """
    p = config.params
    specs = protocol.preparation_sequence(p, config.mode)
    wait = PulseSpec(PulseKind.WAIT, duration=config.wait_time)

    def run(rows, steps, clock, detunings, kick):
        for spec in steps:
            duration = apply_pulse_rows(rows, p, spec, clock, detunings)
            clock = clock + duration
            if kick is not None and spec.kind is not PulseKind.WAIT:
                apply_detuning_phase(rows, p, kick, duration)
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
