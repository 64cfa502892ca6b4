"""The preparation runs in the symmetric sector and returns the sector states it ran.

``prepare_max_entangled`` stores Sym(ions 1..N-1) x ion N x Fock, 2N
amplitudes per level, for every step state and the final state, and
builds no whole 2**N-wide array: only a reader of ``amplitudes`` or
``blocks`` does.  Every state, lifted, must be byte-equal to the same
pulses run on whole arrays, a pulse the sector cannot represent must
lift the state first, and the guards must see the sector rows.
"""

import cmath
import dataclasses
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ionpulse import (
    FRAME_R_PRIME,
    Frame,
    InputError,
    LeakageError,
    PulseKind,
    PulseError,
    PulseMode,
    PulseSpec,
    SimulationError,
    apply_pulse,
    best_ghz_fidelity,
    dense_matrix,
    free_evolve,
    ground_state,
    prepare_max_entangled,
    preparation_sequence,
    pulse_duration,
    verify_trajectory,
)
from ionpulse import hilbert, protocol, pulses, seqlang
from ionpulse.hilbert import flat_index
from conftest import make_params, planned_step

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ionbench"))
from tracing import Tracer  # noqa: E402

AMPLITUDE_BYTES = 16  # complex128


def random_params(rng, n_ions, nmax):
    nu, eta, rabi = rng.uniform((0.5, 0.05, 0.5), (2.0, 0.2, 2.0))
    return make_params(n_ions, nmax=nmax, nu=float(nu), eta=float(eta), rabi=float(rabi))


def whole_run(params, mode, frame):
    """The five pulses on a whole ground state through the same runner: (step states, final state)."""
    state = ground_state(params, frame)
    state.amplitudes  # noqa: B018 - build the whole array
    steps = [state.copy() for _ in protocol._run_steps(state, preparation_sequence(params, mode), 0)]
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
    return state._levels is not None and state._levels.size == 2 * state.params.n_ions * state.params.n_levels


class TestSectorRunEqualsWholeRun:
    @pytest.mark.parametrize("nmax", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_ions", range(1, 10))
    def test_step_states_equal_whole_run_and_dense_product(self, n_ions, nmax):
        rng = np.random.default_rng(100 * n_ions + nmax)
        for mode in PulseMode:
            for frame in (Frame(), Frame(FRAME_R_PRIME, detuning=float(rng.uniform(-0.01, 0.01)))):
                p = random_params(rng, n_ions, nmax)
                if nmax == 1:  # the sideband fills the cutoff: the preparation refuses it before any work
                    with pytest.raises(LeakageError):
                        whole_run(p, mode, frame)
                    with pytest.raises(InputError, match="n_max >= 2"):
                        prepare_max_entangled(p, mode, frame)
                    continue
                want_steps, want_final = whole_run(p, mode, frame)
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
    def test_preparation_and_its_checks_build_no_whole_array(self, monkeypatch, n_ions, mode):
        p = make_params(n_ions)
        prepare_max_entangled(p, mode)  # fill the caches first
        lifted = self.count_lifts(monkeypatch)
        tracemalloc.start()
        try:
            report = prepare_max_entangled(p, mode)
            check = verify_trajectory(report)
            best = best_ghz_fidelity(report.final_state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lifted == []
        assert peak < 64 * 1024  # below one whole state from N=12 (320 KiB) up, and not growing with 2**N
        assert all(in_sector(s) for s in [*report.step_states, report.final_state])
        assert check.passed
        assert best == (report.fidelity_vs_target, report.best_phase)

    def test_step_table_and_the_dump_lift_nothing(self, monkeypatch, capsys):
        from ionpulse.cli import main

        p = make_params(12)
        _, want = whole_run(p, PulseMode.IDEAL, Frame())
        lifted = self.count_lifts(monkeypatch)
        assert main(["prepare", "--ions", "12"]) == 0
        table = capsys.readouterr().out
        assert table.count("step ") == 5
        assert lifted == []
        assert main(["prepare", "--ions", "12", "--dump-state"]) == 0
        assert capsys.readouterr().out == table + want.dump_json() + "\n"
        assert lifted == []  # the dump gathers the final state's text from its sector coefficients

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


def per_word_lift(levels, p):
    """The whole array one bit word at a time: c / sqrt(C(N-1, k)) for the coefficient c of the word's D_k, each part scaled apart."""
    n = p.n_ions
    whole = np.zeros(p.dim, dtype=complex)
    for level in range(p.n_levels):
        for bits in range(p.n_configs):
            s, k = bits >> (n - 1), bin(bits & ((1 << (n - 1)) - 1)).count("1")
            c, share = levels[level, s * n + k], 1.0 / math.sqrt(math.comb(n - 1, k))
            whole[flat_index(p, bits, level)] = complex(c.real * share, c.imag * share)
    return whole


class TestLift:
    @pytest.mark.parametrize("nmax", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_ions", range(1, 13))
    def test_sector_amplitudes_spread_over_dicke_words(self, n_ions, nmax):
        # bit for bit, with signed zeros, NaN and infinities in either part
        p = make_params(n_ions, nmax=nmax)
        rng = np.random.default_rng(100 * n_ions + nmax)
        parts = rng.standard_normal((2, p.n_levels, 2 * n_ions))
        special = rng.random(parts.shape) < 0.3
        parts[special] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf], special.sum())
        levels = np.empty((p.n_levels, 2 * n_ions), dtype=complex)
        levels.real, levels.imag = parts
        state = hilbert.StateVector._sector(levels, p, Frame(), 0.0)
        reads = [state.amplitude(bits, n) for n in range(p.n_levels) for bits in range(p.n_configs)]
        want = per_word_lift(levels, p)
        assert state.amplitudes.tobytes() == want.tobytes()
        assert np.array(reads).tobytes() == want.tobytes()
        norm = math.sqrt(hilbert.populations(levels.reshape(-1)))
        assert state.norm() == pytest.approx(norm, rel=1e-15, nan_ok=True)

    def test_lift_allocates_one_whole_state(self):
        p = make_params(16, nmax=4)
        levels = np.ones((p.n_levels, 32), dtype=complex)
        hilbert._lift(levels, p)  # caches the word index
        tracemalloc.start()
        try:
            hilbert._lift(levels, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= p.dim * AMPLITUDE_BYTES + 64 * 1024

    def test_cold_lift_counts_its_word_index(self, monkeypatch):
        # a cold lift builds the word index (8 B per word) and the popcounts (1 B) beside the state
        p = make_params(16, nmax=1)
        levels = np.ones((p.n_levels, 32), dtype=complex)
        counted = p.dim * AMPLITUDE_BYTES + 9 * p.n_configs
        hilbert._word_index.cache_clear()
        hilbert._popcounts.cache_clear()
        for memory, fits in ((p.dim * AMPLITUDE_BYTES + 4 * p.n_configs, False), (counted, True)):
            monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: memory)
            tracemalloc.start()
            try:
                if fits:
                    hilbert._lift(levels, p)
                else:
                    with pytest.raises(SimulationError, match="amplitudes and 589824 B of index need"):
                        hilbert._lift(levels, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (counted if fits else 0) + 64 * 1024  # nothing is allocated before the check

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
        state = ground_state(p)
        specs = [
            PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=n),
            PulseSpec(PulseKind.JC_PI, target_ion=n, target_n=0),
            PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=n, laser_phase=0.4),
            PulseSpec(PulseKind.JC_PI, target_ion=n, target_n=1, mode=PulseMode.PHYSICAL),
        ]
        for _ in protocol._run_steps(state, specs, 0):
            pass
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


    @pytest.mark.parametrize("excited", [False, True], ids=["k0-only", "k2"])
    def test_sideband_below_ion_n_at_window_0(self, excited):
        # in the sector ion 1's |e> half of level 0 is every coefficient with k >= 1: zero, the pulse writes nothing
        p = make_params(5, nmax=3, nu=1.3)
        levels = np.zeros((p.n_levels, 2 * p.n_ions), dtype=complex)
        levels[0, [0, 2 if excited else p.n_ions]] = 0.6, 0.8j
        spec = PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=0, mode=PulseMode.PHYSICAL)
        rows = levels.reshape(-1).copy()
        duration, populations = planned_step(rows, p, spec, 0.0, top=0)
        assert rows.tobytes() == levels.tobytes()  # a turn the sector does not represent writes nothing either
        assert (populations is None) == excited
        sector = hilbert.StateVector._sector(levels.copy(), p, Frame(), 0.0)
        whole = sector.copy()
        whole.amplitudes  # noqa: B018 - build the whole array
        apply_pulse(sector, spec, top=0)
        apply_pulse(whole, spec, top=0)
        assert in_sector(sector) != excited
        assert sector.amplitudes.tobytes() == whole.amplitudes.tobytes()
        assert sector.clock == whole.clock == duration

class TestProgramFromASectorState:
    """``seqlang.execute`` from a sector-stored ``initial`` keeps it in the sector while its steps allow."""

    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("n_ions", [3, 6])
    def test_program_runs_in_the_sector_and_equals_the_lifted_run(self, n_ions, mode):
        p = make_params(n_ions, nmax=4, nu=1.3, eta=0.11, rabi=0.9)
        suffix = " mode=physical" if mode is PulseMode.PHYSICAL else ""
        steps = [
            "wait T=0.7",
            f"carrier_pi2 ion={n_ions} phase=0.4",
            f"jc_pi ion={n_ions} n=0{suffix}",
            f"disp_pi all n=1{suffix}",
            "wait T=2.5",
            f"disp_pi ion={n_ions} n=1{suffix}",
            f"jc_pi ion={n_ions} n=0{suffix}",
        ]
        header = f"ions N={n_ions}\ntrap nu=1.3 eta=0.11 rabi=0.9 nmax=4\n"
        program, diagnostics = seqlang.parse(header + "\n".join(steps) + "\n")
        assert program is not None, diagnostics
        initial = prepare_max_entangled(p, mode).final_state
        lifted = initial.copy()
        lifted.amplitudes  # noqa: B018 - build the whole array
        assert in_sector(initial) and not in_sector(lifted)
        final, trace = seqlang.execute(program, initial)
        want, want_trace = seqlang.execute(program, lifted)
        assert in_sector(final) and in_sector(initial)
        assert final.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert final.clock == want.clock
        assert trace == want_trace


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

    @pytest.mark.parametrize("n_ions", [*range(1, 13), 18])
    def test_sector_reads_equal_whole_array_reads(self, n_ions):
        # Residuals and fidelity read from the stored coefficients, bit for bit those read from the lifted arrays.
        # One state is lifted at a time, so N = 18 holds one whole array.
        rng = np.random.default_rng(2500 + n_ions)
        for nmax in (2, 3, 4):
            for mode in PulseMode:
                frame = Frame(FRAME_R_PRIME, detuning=float(rng.uniform(-0.01, 0.01))) if nmax != 3 else Frame()
                report = prepare_max_entangled(random_params(rng, n_ions, nmax), mode, frame)
                residuals = [r.hex() for r in verify_trajectory(report).residuals]
                fidelity = [x.hex() for x in best_ghz_fidelity(report.final_state)]
                for step in range(5):
                    states = list(report.step_states)
                    states[step] = states[step].copy()
                    states[step].amplitudes  # noqa: B018 - lifts this step state alone
                    lifted = verify_trajectory(dataclasses.replace(report, step_states=states)).residuals
                    assert lifted[step].hex() == residuals[step], (nmax, mode, step)
                final = report.final_state.copy()
                final.amplitudes  # noqa: B018
                assert [x.hex() for x in best_ghz_fidelity(final)] == fidelity
                assert all(in_sector(s) for s in [*report.step_states, report.final_state]) or n_ions <= 2

    @pytest.mark.parametrize("ion", [1, 4])
    def test_sector_rows_address_ion_n_alone(self, ion):
        p = make_params(5)
        with pytest.raises(ValueError) as info:
            hilbert._ion_view(ground_state(p)._rows(), p, ion)
        assert str(info.value) == f"the sector basis addresses ion 5 alone, not ion {ion}"

    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_tracer_counting_changes_no_output(self, mode):
        p = make_params(7, nmax=4, nu=0.8, eta=0.15, rabi=1.4)
        want = outputs(prepare_max_entangled(p, mode))
        with Tracer().installed() as tracer:
            tracer.counting = True
            report = protocol.prepare_max_entangled(p, mode)
        assert tracer.counts["pulses"] == 5
        assert outputs(report) == want


class TestManyIons:
    """From N = 256 the sector's popcount k + s no longer fits in a byte: each reader must still see it whole."""

    N = 300

    def sector_popcounts(self):
        return [s + k for s in (0, 1) for k in range(self.N)]

    def test_sector_popcounts_count_past_a_byte(self):
        table = hilbert._popcounts(self.N, sector=True)
        assert table.dtype == np.uint16
        assert table.tolist() == self.sector_popcounts()

    def test_collective_flip_at_a_laser_phase(self):
        phase = 0.3
        coef = pulses._collective_flip(self.N, phase, sector=True)
        want = [(-1) ** pc * np.exp(1j * phase * (self.N - 2 * pc)) for pc in self.sector_popcounts()]
        assert np.allclose(coef, want, rtol=0.0, atol=1e-12)

    def test_wait_detuning_phase_on_sector_rows(self):
        p = make_params(self.N, nmax=2, nu=1.3)
        delta, wait = 0.017, 2.5
        levels = np.random.default_rng(3).standard_normal((p.n_levels, 2 * self.N)).astype(complex)
        levels /= math.sqrt(hilbert.populations(levels.reshape(-1)))
        state = hilbert.StateVector._sector(levels.copy(), p, Frame(FRAME_R_PRIME, detuning=delta), 0.0)
        apply_pulse(state, PulseSpec(PulseKind.WAIT, duration=wait))
        assert in_sector(state)
        free = np.exp(-1j * p.trap_freq * wait * np.arange(p.n_levels))[:, None]
        detuned = np.exp(-1j * delta * wait * np.array(self.sector_popcounts()))
        assert np.allclose(state._levels.reshape(levels.shape), levels * free * detuned, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n_ions", [1031, 2000, 10**5])
    def test_ground_state_reads_form_only_the_dicke_shares_they_need(self, n_ions):
        # C(N-1, k) passes the float range from N = 1031, at k near (N-1)/2
        state = ground_state(make_params(n_ions))
        assert state.amplitude(0, 0) == 1
        assert best_ghz_fidelity(state) == (0.5, 0.0)


class TestPopcountsPastTwoBytes:
    """From N = 65536 the sector's popcount k + s no longer fits in two bytes: the phases that read it must still see it whole."""

    N = 70000

    def test_sector_popcounts_count_past_two_bytes(self):
        table = hilbert._popcounts(self.N, sector=True)
        assert table.dtype == np.uint32
        assert int(table[-1]) == self.N

    def test_detuned_wait_after_the_preparation(self):
        # |e..e> takes exp(-i N delta T) against |g..g>: 0.885 rad mod 2 pi here, -1.819 rad with N wrapped at 2**16
        delta, wait = 1e-3, 1.0
        report = prepare_max_entangled(make_params(self.N, nmax=2), frame=Frame(FRAME_R_PRIME, detuning=delta))
        state = report.final_state
        _, before = best_ghz_fidelity(state)
        free_evolve(state, wait)
        _, after = best_ghz_fidelity(state)
        assert in_sector(state)
        assert abs(cmath.exp(1j * (before - after)) - cmath.exp(1j * self.N * delta * wait)) <= 1e-12

    def test_collective_pi_at_a_laser_phase(self):
        # step 3's state holds |e..e>|1>, which the pulse maps to (-1)^N e^{-i phase N} |g..g>|1>, then level 1's free phase
        p = make_params(self.N, nmax=2)
        state = prepare_max_entangled(p).step_states[2]
        high = state.amplitude(p.n_configs - 1, 1)
        phase = 0.3
        duration, _ = apply_pulse(state, PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, laser_phase=phase))
        assert in_sector(state)
        want = high * (-1) ** self.N * cmath.exp(-1j * phase * self.N) * cmath.exp(-1j * p.trap_freq * duration)
        assert abs(state.amplitude(0, 1) - want) <= 1e-12
