"""The preparation runs in the symmetric sector and lifts only its final state.

``prepare_max_entangled`` stores Sym(ions 1..N-1) x ion N x Fock, 2N
amplitudes per level, and builds the whole 2**N-wide array once, for the
final state.  Every step state and the final state must be byte-equal to
the same pulses run on whole arrays, a pulse the sector cannot represent
must lift the state first, and the guards must see the sector rows.
"""

import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ionpulse import (
    FRAME_R_PRIME,
    Frame,
    LeakageError,
    PulseKind,
    PulseError,
    PulseMode,
    PulseSpec,
    SimulationError,
    apply_pulse,
    dense_matrix,
    ground_state,
    prepare_max_entangled,
    preparation_sequence,
    pulse_duration,
    verify_trajectory,
)
from ionpulse import hilbert, protocol, pulses
from ionpulse.hilbert import _sector_ground_state, flat_index
from conftest import make_params

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ionbench"))
from tracing import Tracer  # noqa: E402

AMPLITUDE_BYTES = 16  # complex128


def random_params(rng, n_ions, nmax):
    nu, eta, rabi = rng.uniform((0.5, 0.05, 0.5), (2.0, 0.2, 2.0))
    return make_params(n_ions, nmax=nmax, nu=float(nu), eta=float(eta), rabi=float(rabi))


def whole_run(params, mode, frame):
    """The five pulses on a whole ground state through the same runner: (step states, final state)."""
    state, steps = ground_state(params, frame), []
    protocol._run_sequence(state, preparation_sequence(params, mode), 0, steps)
    return steps, state


def outputs(report):
    """Every byte and number a preparation reports, with its trajectory residuals."""
    states = [*report.step_states, report.final_state]
    return (
        [(s.amplitudes.tobytes(), s.clock) for s in states],
        report.fidelity_vs_target,
        report.best_phase,
        report.pulse_times,
        verify_trajectory(report).residuals,
    )


def in_sector(state):
    return state._levels is not None and state._levels.shape[1] == 2 * state.params.n_ions


class TestSectorRunEqualsWholeRun:
    @pytest.mark.parametrize("nmax", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_ions", range(1, 10))
    def test_step_states_equal_whole_run_and_dense_product(self, n_ions, nmax):
        rng = np.random.default_rng(100 * n_ions + nmax)
        for mode in PulseMode:
            for frame in (Frame(), Frame(FRAME_R_PRIME, detuning=float(rng.uniform(-0.01, 0.01)))):
                p = random_params(rng, n_ions, nmax)
                try:
                    want_steps, want_final = whole_run(p, mode, frame)
                except LeakageError as exc:  # nmax = 1: the sideband fills the cutoff
                    with pytest.raises(LeakageError, match=re.escape(str(exc))):
                        prepare_max_entangled(p, mode, frame)
                    continue
                report = prepare_max_entangled(p, mode, frame)
                assert n_ions <= 2 or all(in_sector(s) for s in report.step_states)
                got, want = [*report.step_states, report.final_state], [*want_steps, want_final]
                assert [s.amplitudes.tobytes() for s in got] == [s.amplitudes.tobytes() for s in want]
                assert [(s.clock, s.frame) for s in got] == [(s.clock, s.frame) for s in want]
                vector, t0 = ground_state(p).amplitudes, 0.0
                for spec, state in zip(preparation_sequence(p, mode), report.step_states):
                    vector = dense_matrix(spec, p, t0) @ vector
                    t0 = t0 + pulse_duration(spec, p)
                    assert np.max(np.abs(state.amplitudes - vector)) <= 1e-12


class TestStepStates:
    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("nmax", [2, 3, 4])
    @pytest.mark.parametrize("n_ions", range(1, 13))
    def test_last_step_state_is_a_byte_copy_of_the_final_state(self, n_ions, nmax, mode):
        # signed zeros above the window included: a snapshot copies what its state stores
        report = prepare_max_entangled(make_params(n_ions, nmax=nmax), mode)
        assert report.step_states[4].amplitudes.tobytes() == report.final_state.amplitudes.tobytes()


class TestWholeArrays:
    @staticmethod
    def count_lifts(monkeypatch):
        lifted = []
        lift = hilbert._lift

        def counting(levels, params):
            lifted.append(levels.shape)
            return lift(levels, params)

        monkeypatch.setattr(hilbert, "_lift", counting)
        return lifted

    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("n_ions", [3, 7, 12])
    def test_preparation_builds_only_the_final_state(self, monkeypatch, n_ions, mode):
        p = make_params(n_ions)
        prepare_max_entangled(p, mode)  # fill the caches first
        lifted = self.count_lifts(monkeypatch)
        reports = []
        tracemalloc.start()
        try:
            reports.append(prepare_max_entangled(p, mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lifted == [(p.n_levels, 2 * n_ions)]  # the final state, every level stored
        assert peak < p.dim * AMPLITUDE_BYTES + 64 * 1024
        assert reports[0].final_state._levels is None
        assert verify_trajectory(reports[0]).passed
        assert len(lifted) == 1  # the trajectory check built none
        assert all(in_sector(s) for s in reports[0].step_states)

    def test_step_table_lifts_only_the_final_state(self, monkeypatch, capsys):
        from ionpulse.cli import main

        lifted = self.count_lifts(monkeypatch)
        assert main(["prepare", "--ions", "12"]) == 0
        assert capsys.readouterr().out.count("step ") == 5
        assert lifted == [(5, 24)]  # the final state alone

    def test_norm_and_fock_populations_read_the_stored_levels(self, monkeypatch):
        p = make_params(6, nmax=4)
        report = prepare_max_entangled(p, PulseMode.PHYSICAL)
        lifted = self.count_lifts(monkeypatch)
        for state in report.step_states:
            pops, norm = hilbert.fock_populations(state), state.norm()
            assert lifted == []
            assert pops.tolist() == hilbert.populations(state.blocks).tolist()  # now lifted
            assert norm == pytest.approx(math.sqrt(hilbert.populations(state.amplitudes)), abs=1e-15)
            lifted.clear()


class TestLift:
    def test_sector_amplitudes_spread_over_dicke_words(self):
        # sector coefficient c of D_k: c / sqrt(C(N-1, k)) on each of its words
        p = make_params(4, nmax=2)
        rng = np.random.default_rng(7)
        levels = np.zeros((p.n_levels, 8), dtype=complex)  # every level stored, the top one zero
        levels[:2] = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        state = hilbert.StateVector._sector(levels, p, Frame(), 0.0)
        want = np.zeros(p.dim, dtype=complex)
        for n in range(2):
            for bits in range(p.n_configs):
                s, k = bits >> 3, bin(bits & 7).count("1")
                want[flat_index(p, bits, n)] = levels[n, s * 4 + k] / math.sqrt(math.comb(3, k))
        reads = [state.amplitude(bits, n) for n in range(3) for bits in range(p.n_configs)]
        assert np.allclose(state.amplitudes, want, rtol=0.0, atol=1e-15)
        assert np.allclose(reads, want, rtol=0.0, atol=1e-15)
        assert state.norm() == pytest.approx(math.sqrt(hilbert.populations(levels.reshape(-1))), abs=1e-15)

    def test_signed_zeros_and_nan_are_lifted(self):
        p = make_params(3, nmax=1)
        levels = np.zeros((p.n_levels, 6), dtype=complex)
        levels[0, 1] = complex(-0.0, 0.0)
        levels[0, 4] = complex(math.nan, 0.0)
        whole = hilbert._lift(levels, p)
        assert np.signbit(whole[[1, 2]].real).all() and not np.signbit(whole[[0, 3]].real).any()
        assert np.isnan(whole[[5, 6]].real).all() and not np.isnan(np.delete(whole, [5, 6])).any()


class TestUnrepresentablePulses:
    @staticmethod
    def sector_state(p):
        """A sector-stored state on levels 0, 1 and 2, reached by pulses on ion N alone."""
        n = p.n_ions
        state = _sector_ground_state(p)
        specs = [
            PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=n),
            PulseSpec(PulseKind.JC_PI, target_ion=n, target_n=0),
            PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=n, laser_phase=0.4),
            PulseSpec(PulseKind.JC_PI, target_ion=n, target_n=1, mode=PulseMode.PHYSICAL),
        ]
        protocol._run_sequence(state, specs, 0)
        assert in_sector(state) and hilbert._fock_top(state._rows(), p) == 2
        return state

    @pytest.mark.parametrize(
        "spec",
        [
            PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1, laser_phase=0.3),
            PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=2, target_n=2),
            PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, mode=PulseMode.PHYSICAL),  # 2 pi on level 2
        ],
        ids=["carrier-ion-1", "disp-ion-2", "physical-disp-all-levels-1-2"],
    )
    def test_pulse_lifts_and_equals_the_whole_state_pulse(self, spec):
        p = make_params(5, nmax=4, nu=1.3, eta=0.11, rabi=0.9)
        sector = self.sector_state(p)
        whole = sector.copy()
        whole.amplitudes  # noqa: B018 - build the whole array
        apply_pulse(sector, spec, top=2)
        apply_pulse(whole, spec, top=2)
        assert sector._levels is None
        assert sector.amplitudes.tobytes() == whole.amplitudes.tobytes()
        assert sector.clock == whole.clock

    def test_invalid_collective_pulse_is_a_pulse_error(self):
        p = make_params(5, nmax=4)
        sector = self.sector_state(p)
        spec = PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=0, mode=PulseMode.PHYSICAL)
        with pytest.raises(PulseError, match="target_n >= 1"):
            apply_pulse(sector, spec, top=2)

    @pytest.mark.parametrize(
        "spec",
        [
            PulseSpec(PulseKind.WAIT, duration=2.5),
            PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=5, target_n=2, mode=PulseMode.PHYSICAL),
            PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=2, laser_phase=0.7),
        ],
        ids=["wait", "disp-ion-N", "ideal-disp-all"],
    )
    def test_representable_pulse_stays_in_the_sector(self, spec):
        p = make_params(5, nmax=4, nu=1.3, eta=0.11, rabi=0.9)
        frame = Frame(FRAME_R_PRIME, detuning=0.02)
        sector = self.sector_state(p)
        sector.frame = frame
        whole = sector.copy()
        whole.amplitudes  # noqa: B018 - build the whole array
        apply_pulse(sector, spec)
        apply_pulse(whole, spec)
        assert in_sector(sector)
        assert np.allclose(sector.amplitudes, whole.amplitudes, rtol=0.0, atol=1e-15)


class TestGuardsAndReads:
    def test_nan_written_into_the_sector_trips_the_norm_guard(self, monkeypatch):
        p = make_params(5)
        free_phases = pulses._apply_free_phases
        seen = []

        def poisoned(amplitudes, params, duration, top):
            free_phases(amplitudes, params, duration, top)
            seen.append(amplitudes.size)
            amplitudes[1] = math.nan  # level 0, sector index 1

        monkeypatch.setattr(pulses, "_apply_free_phases", poisoned)
        with pytest.raises(SimulationError, match=r"state norm drifted to nan"):
            prepare_max_entangled(p)
        assert seen == [p.n_levels * 2 * p.n_ions]

    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("step", range(5))
    def test_reading_amplitudes_mid_run_changes_no_output(self, monkeypatch, step, mode):
        p = make_params(6, nmax=3, nu=1.3, eta=0.11, rabi=0.9)
        want = outputs(prepare_max_entangled(p, mode))
        applied = []

        def reading(state, spec, **kwargs):
            if len(applied) == step:
                state.amplitudes  # noqa: B018 - lifts the running state
            applied.append(spec)
            return pulses.apply_pulse(state, spec, **kwargs)

        monkeypatch.setattr(protocol, "apply_pulse", reading)
        assert outputs(prepare_max_entangled(p, mode)) == want

    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_tracer_counting_changes_no_output(self, mode):
        p = make_params(7, nmax=4, nu=0.8, eta=0.15, rabi=1.4)
        want = outputs(prepare_max_entangled(p, mode))
        with Tracer().installed() as tracer:
            tracer.counting = True
            report = protocol.prepare_max_entangled(p, mode)
        assert tracer.counts["pulses"] == 5
        assert outputs(report) == want
