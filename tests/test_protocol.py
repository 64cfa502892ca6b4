import math
import warnings
import weakref
from functools import lru_cache

import numpy as np
import pytest

from ionpulse import (
    FRAME_R_PRIME,
    Frame,
    InputError,
    LeakageError,
    PulseError,
    PulseMode,
    RabiLaw,
    RamseyConfig,
    SimulationError,
    StateVector,
    best_ghz_fidelity,
    dense_matrix,
    excited_population,
    fidelity,
    flat_index,
    fock_populations,
    free_evolve,
    ground_state,
    prepare_max_entangled,
    preparation_sequence,
    apply_pulse,
    pulse_duration,
    ramsey_probability,
    ramsey_run,
    ramsey_scan,
    reversed_sequence,
    target_ghz,
    trajectory_reference,
    verify_trajectory,
)
from ionpulse import hilbert, protocol
from ionpulse.cli import SCAN_GATE
from ionpulse.protocol import result_to_csv, result_to_json_dict
from conftest import assert_exact_copy, make_params

# Long enough that the detuning grids used below stay inside the validity
# window |delta| << all Rabi frequencies.
WAIT = 1.0e5


def dense_product_oracle(params, mode=PulseMode.IDEAL):
    """Compose the five dense pulse matrices at their scheduled start times."""
    total = np.eye(params.dim, dtype=complex)
    t = 0.0
    for spec in preparation_sequence(params, mode):
        total = dense_matrix(spec, params, t0=t) @ total
        t += pulse_duration(spec, params)
    return total


class TestPreparation:
    def test_two_ions_hits_target(self):
        report = prepare_max_entangled(make_params(2))
        assert report.fidelity_vs_target >= 1 - 1e-12
        assert fidelity(report.final_state, target_ghz(make_params(2), report.best_phase)) >= 1 - 1e-12

    def test_single_ion_dense_product_oracle(self):
        params = make_params(1)
        report = prepare_max_entangled(params)
        expected = dense_product_oracle(params) @ ground_state(params).amplitudes
        assert np.max(np.abs(report.final_state.amplitudes - expected)) <= 1e-12
        assert report.fidelity_vs_target >= 1 - 1e-12

    def test_motion_ends_in_ground_level(self):
        for n in (1, 2, 5):
            report = prepare_max_entangled(make_params(n))
            pops = fock_populations(report.final_state)
            assert pops[0] >= 1 - 1e-12

    def test_pulse_times_strictly_increasing(self):
        report = prepare_max_entangled(make_params(3))
        times = report.pulse_times
        assert all(b > a for a, b in zip(times, times[1:]))
        assert report.final_state.clock == times[-1]

    def test_midpoint_state_amplitudes(self):
        # after pulse 3: 1/sqrt2 on |g..g>|0> and i e^{-i nu t3}/sqrt2 on |e..e>|1>
        params = make_params(3)
        report = prepare_max_entangled(params)
        state3 = report.step_states[2]
        t3 = report.pulse_times[2]
        assert state3.amplitude(0b000, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert state3.amplitude(0b111, 1) == pytest.approx(
            1j * np.exp(-1j * params.trap_freq * t3) / math.sqrt(2), abs=1e-13
        )

    def test_phi_reported_with_omega0(self):
        report = prepare_max_entangled(make_params(3), omega0=2.5)
        assert report.phi_schroedinger == pytest.approx(3 * 2.5 * report.pulse_times[-1])
        assert prepare_max_entangled(make_params(3)).phi_schroedinger is None

    def test_carrier_phase_controls_target_phase(self):
        # shifting the first pulse's phase shifts the prepared state's phase
        from ionpulse import PulseKind, PulseSpec, apply_pulse

        params = make_params(2)
        phi = 1.234
        specs = preparation_sequence(params)
        state = ground_state(params)
        apply_pulse(state, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=2, laser_phase=phi))
        for spec in specs[1:]:
            apply_pulse(state, spec)
        fid, best = best_ghz_fidelity(state)
        assert fid >= 1 - 1e-12
        assert best == pytest.approx(phi, abs=1e-12)


class TestTrajectory:
    @pytest.mark.parametrize("n_ions", range(1, 9))
    def test_ideal_residuals(self, n_ions):
        report = prepare_max_entangled(make_params(n_ions))
        check = verify_trajectory(report, tolerance=1e-12)
        assert check.passed, check.residuals

    def test_physical_mode_two_ions(self):
        # protocol states only populate targeted levels, so physical == ideal
        params = make_params(2)
        report = prepare_max_entangled(params, PulseMode.PHYSICAL)
        check = verify_trajectory(report, tolerance=1e-12)
        assert check.passed, check.residuals
        expected = dense_product_oracle(params, PulseMode.PHYSICAL) @ ground_state(params).amplitudes
        assert np.max(np.abs(report.final_state.amplitudes - expected)) <= 1e-12

    def test_physical_matches_ideal_report(self):
        # the protocol only populates the targeted levels, where a physical
        # angle of pi is the ideal map, so the two modes agree exactly
        for n in range(1, 13):
            for nmax in (2, 3, 4):
                ideal = prepare_max_entangled(make_params(n, nmax=nmax))
                phys = prepare_max_entangled(make_params(n, nmax=nmax), PulseMode.PHYSICAL)
                assert np.array_equal(ideal.final_state.amplitudes, phys.final_state.amplitudes), (n, nmax)
                for a, b in zip(ideal.step_states, phys.step_states, strict=True):
                    assert np.array_equal(a.amplitudes, b.amplitudes), (n, nmax)

    def test_step_snapshots_copy_exactly(self):
        for n in range(1, 13):
            for nmax in (2, 3, 4):
                for mode in PulseMode:
                    for state in prepare_max_entangled(make_params(n, nmax=nmax), mode).step_states:
                        assert_exact_copy(state)

    def test_residual_detects_phase_tampering(self):
        report = prepare_max_entangled(make_params(2))
        report.step_states[2].blocks[1:] *= np.exp(0.01j)
        check = verify_trajectory(report, tolerance=1e-12)
        assert not check.passed
        assert check.residuals[2] > 1e-6

    @staticmethod
    def dense_residuals(report):
        refs = trajectory_reference(report.final_state.params, report.pulse_times)
        return [1.0 - abs(np.vdot(sim.amplitudes, ref.amplitudes)) ** 2 for sim, ref in zip(report.step_states, refs)]

    @staticmethod
    def move_off_support(state, weight):
        """Keep sqrt(1 - weight) of every amplitude and put sqrt(weight) on a basis state the references never use."""
        state.amplitudes *= math.sqrt(1.0 - weight)
        state.amplitudes[flat_index(state.params, 1, 2)] += math.sqrt(weight)

    @pytest.mark.parametrize("tamper", ["none", "phase-on-support", "off-support"])
    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("n_ions", [1, 2, 5])
    def test_sparse_residuals_equal_dense_overlaps(self, n_ions, mode, tamper):
        for step in range(5):
            report = prepare_max_entangled(make_params(n_ions, nmax=3), mode)
            state = report.step_states[step]
            if tamper == "phase-on-support":
                state.blocks[1:] *= np.exp(0.01j)
            elif tamper == "off-support":
                self.move_off_support(state, 0.1)
            residuals = verify_trajectory(report).residuals
            dense = self.dense_residuals(report)
            assert max(abs(r - d) for r, d in zip(residuals, dense)) <= 1e-15

    def test_amplitude_moved_off_support_fails_the_check(self):
        report = prepare_max_entangled(make_params(3))
        self.move_off_support(report.step_states[3], 0.1)
        check = verify_trajectory(report, tolerance=1e-12)
        assert not check.passed
        assert check.residuals[3] == pytest.approx(0.1, abs=1e-12)
        assert max(check.residuals[:3] + check.residuals[4:]) <= 1e-12

    @pytest.mark.parametrize("step", range(5))
    def test_snapshot_keeps_amplitude_moved_off_support(self, step):
        # the moved amplitude sits on Fock level 2, above every step state's window
        report = prepare_max_entangled(make_params(3))
        self.move_off_support(report.step_states[step], 0.1)
        report.step_states[step] = assert_exact_copy(report.step_states[step])
        check = verify_trajectory(report, tolerance=1e-12)
        assert not check.passed
        assert check.residuals[step] == pytest.approx(0.1, abs=1e-12)

    def test_reference_states_are_normalized(self):
        params = make_params(4)
        report = prepare_max_entangled(params)
        for ref in trajectory_reference(params, report.pulse_times):
            assert ref.norm() == pytest.approx(1.0, abs=1e-15)

    def test_final_state_factorizes_from_motion(self):
        params = make_params(4)
        final = prepare_max_entangled(params).final_state
        product = np.zeros(params.dim, dtype=complex)
        block = final.blocks[0]
        product[: params.n_configs] = block / np.linalg.norm(block)
        product_state = StateVector(product, params, final.frame, final.clock)
        assert fidelity(final, product_state) >= 1 - 1e-12


class TestReversal:
    @pytest.mark.parametrize("n_ions", range(1, 8))
    def test_zero_wait_parity(self, n_ions):
        params = make_params(n_ions)
        report = prepare_max_entangled(params)
        state = report.final_state
        free_evolve(state, 0.0)
        reversed_sequence(state)
        p_last = excited_population(state, n_ions)
        if n_ions % 2 == 0:
            assert p_last <= 1e-10
        else:
            assert p_last >= 1 - 1e-10
        for ion in range(1, n_ions):
            assert excited_population(state, ion) <= 1e-10

    def test_half_period_detuning_flips_even_parity(self):
        # N=2 with N*delta*T = pi gives P = 1
        params = make_params(2)
        delta = math.pi / (2 * WAIT)
        config = RamseyConfig(params=params, wait_time=WAIT, detuning_grid=(delta,))
        _, p = ramsey_run(config, delta)
        assert p == pytest.approx(1.0, abs=1e-10)


class TestRamsey:
    def test_examples(self):
        # N=2, delta*T = pi/2 -> P = 1; N=3, delta=0 -> P = 1; N=4, delta*T = pi/8 -> P = 1/2
        cases = [
            (2, math.pi / 2, 1.0),
            (3, 0.0, 1.0),
            (4, math.pi / 8, 0.5),
        ]
        for n_ions, delta_t, expected in cases:
            params = make_params(n_ions)
            delta = delta_t / WAIT
            config = RamseyConfig(params=params, wait_time=WAIT, detuning_grid=(delta,))
            _, p = ramsey_run(config, delta)
            assert p == pytest.approx(expected, abs=1e-10)

    def test_final_state_closed_form(self):
        # (1/2)|g..g>_{1..N-1} {(1+(-1)^N e^{-i N dT})|g_N> + (1-(-1)^N e^{-i N dT})|e_N>} |0>
        n_ions = 3
        params = make_params(n_ions)
        delta = 0.9 / WAIT
        config = RamseyConfig(params=params, wait_time=WAIT, detuning_grid=(delta,))
        state, _ = ramsey_run(config, delta)
        phase = (-1) ** n_ions * np.exp(-1j * n_ions * delta * WAIT)
        expected = np.zeros(params.dim, dtype=complex)
        expected[flat_index(params, 0, 0)] = 0.5 * (1 + phase)
        expected[flat_index(params, 1 << (n_ions - 1), 0)] = 0.5 * (1 - phase)
        overlap = abs(np.vdot(expected, state.amplitudes)) ** 2
        assert overlap >= 1 - 1e-10

    @pytest.mark.parametrize("n_ions", range(1, 7))
    def test_scan_matches_closed_form(self, n_ions):
        params = make_params(n_ions)
        grid = tuple(x / (n_ions * WAIT) for x in np.linspace(-2 * math.pi, 2 * math.pi, 41))
        result = ramsey_scan(RamseyConfig(params=params, wait_time=WAIT, detuning_grid=grid))
        assert result.max_abs_error <= 1e-10
        assert all(0.0 <= s.p_simulated <= 1.0 + 1e-12 for s in result.samples)

    def test_single_ion_is_ordinary_fringe(self):
        params = make_params(1)
        grid = tuple(x / WAIT for x in np.linspace(0, 2 * math.pi, 11))
        result = ramsey_scan(RamseyConfig(params=params, wait_time=WAIT, detuning_grid=grid))
        for sample in result.samples:
            assert sample.p_analytic == pytest.approx(
                0.5 * (1 + math.cos(sample.delta * WAIT)), abs=1e-15
            )
            assert sample.p_simulated == pytest.approx(sample.p_analytic, abs=1e-10)

    def test_fringe_crossing_spacing_halves_from_two_to_four_ions(self):
        # first P = 1/2 crossing sits at N delta T = pi/2 for even N
        def first_crossing(n_ions):
            params = make_params(n_ions)
            config = RamseyConfig(params=params, wait_time=WAIT, detuning_grid=(0.0,))

            def offset(delta):
                return ramsey_run(config, delta)[1] - 0.5

            lo = 0.1 * math.pi / (n_ions * WAIT)
            hi = 0.9 * math.pi / (n_ions * WAIT)
            f_lo = offset(lo)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                f_mid = offset(mid)
                if (f_mid > 0) == (f_lo > 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        c2 = first_crossing(2)
        c4 = first_crossing(4)
        assert c4 == pytest.approx(c2 / 2, rel=1e-8)

    def test_probability_law_values(self):
        assert ramsey_probability(2, 0.0, 1.0) == 0.0
        assert ramsey_probability(3, 0.0, 1.0) == 1.0
        assert ramsey_probability(2, math.pi / 2, 1.0) == pytest.approx(1.0)

    def test_validity_warning(self):
        params = make_params(2)
        config = RamseyConfig(params=params, wait_time=10.0, detuning_grid=(0.1,))
        with pytest.warns(UserWarning):
            ramsey_run(config, 0.1)

    def test_detuning_during_pulses_diagnostic(self):
        # switching the diagnostic on quantifies the frame approximation:
        # the error stays finite and grows from the default-mode error
        params = make_params(2)
        delta = 2e-5 / 2
        grid = (delta,)
        base = ramsey_scan(RamseyConfig(params=params, wait_time=WAIT, detuning_grid=grid))
        diag = ramsey_scan(
            RamseyConfig(
                params=params, wait_time=WAIT, detuning_grid=grid, detuning_during_pulses=True
            )
        )
        assert diag.max_abs_error > base.max_abs_error
        assert diag.max_abs_error < 0.05

    @pytest.mark.xfail(strict=True, reason="absolute-clock phase arguments lose precision at long waits")
    @pytest.mark.parametrize("mode", list(PulseMode))
    def test_long_wait_scan_within_the_gate(self, mode):
        # the command-line gate at T = 1e8, N = 8: about 5e-9 today, the
        # rounding of nu * t0 in the phase arguments at t0 ~ T
        wait = 1.0e8
        params = make_params(8)
        grid = tuple(x / (8 * wait) for x in np.linspace(-2 * math.pi, 2 * math.pi, 41))
        result = ramsey_scan(RamseyConfig(params=params, wait_time=wait, detuning_grid=grid, mode=mode))
        assert result.max_abs_error <= SCAN_GATE

    def test_empty_grid_rejected(self):
        params = make_params(2)
        with pytest.raises(ValueError):
            ramsey_scan(RamseyConfig(params=params, wait_time=1.0, detuning_grid=()))

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            RamseyConfig(params=make_params(2), wait_time=-1.0, detuning_grid=(0.0,))


class TestSerialization:
    def test_csv_shape_and_precision(self):
        params = make_params(2)
        grid = tuple(x / WAIT for x in np.linspace(0, math.pi, 5))
        result = ramsey_scan(RamseyConfig(params=params, wait_time=WAIT, detuning_grid=grid))
        text = result_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "delta,T,P_sim,P_analytic"
        assert len(lines) == 6
        cells = lines[1].split(",")
        assert len(cells) == 4
        # 15 significant digits in scientific notation
        assert "e" in cells[0] and len(cells[0].split("e")[0].replace("-", "").replace(".", "")) == 15
        for row, sample in zip(lines[1:], result.samples):
            parsed = [float(c) for c in row.split(",")]
            assert parsed[0] == pytest.approx(sample.delta, rel=1e-14, abs=1e-300)
            assert parsed[2] == pytest.approx(sample.p_simulated, rel=1e-14, abs=1e-300)

    def test_json_dict(self):
        params = make_params(2)
        result = ramsey_scan(
            RamseyConfig(params=params, wait_time=WAIT, detuning_grid=(0.0, 1e-6))
        )
        data = result_to_json_dict(result)
        assert set(data) == {"samples", "max_abs_error"}
        assert len(data["samples"]) == 2
        assert set(data["samples"][0]) == {"delta", "T", "P_sim", "P_analytic"}


# --------------------------------------------------------------------------
# Batched scans against a point-by-point reconstruction
# --------------------------------------------------------------------------

SCAN_WAITS = (0.0, WAIT)
# Starts at delta = 0, so every prefix of the grid includes it; |delta| stays
# inside the validity window for every N.
SCAN_POINTS = 200


def scan_grid(n_ions):
    sweep = np.linspace(-2 * math.pi, 2 * math.pi, SCAN_POINTS - 1) / (n_ions * WAIT)
    return (0.0,) + tuple(float(x) for x in sweep)


@lru_cache(maxsize=None)
def reconstructed_fringe(n_ions, mode, detuning_during_pulses, wait):
    """P(delta) over scan_grid(n_ions), one single state per point.

    Loops apply_pulse and free_evolve; the detuning phase accumulated
    during pulses is written out here rather than taken from the library.
    """
    params = make_params(n_ions)
    popcount = np.array([bin(b).count("1") for b in range(params.n_configs)])
    specs = preparation_sequence(params, mode)
    out = []
    for delta in scan_grid(n_ions):
        state = ground_state(params, Frame(FRAME_R_PRIME, detuning=delta))

        def run(sequence):
            for spec in sequence:
                apply_pulse(state, spec)
                if detuning_during_pulses and delta != 0.0:
                    phase = np.exp(-1j * delta * pulse_duration(spec, params) * popcount)
                    state.blocks[:] *= phase[None, :]

        run(specs)
        free_evolve(state, wait)
        run(reversed(specs))
        out.append(excited_population(state, n_ions))
    return tuple(out)


def assert_scan_matches_reconstruction(n_ions, mode, detuning_during_pulses, wait, length):
    grid = scan_grid(n_ions)[:length]
    config = RamseyConfig(
        params=make_params(n_ions),
        wait_time=wait,
        detuning_grid=grid,
        mode=mode,
        detuning_during_pulses=detuning_during_pulses,
    )
    result = ramsey_scan(config)
    expected = reconstructed_fringe(n_ions, mode, detuning_during_pulses, wait)[:length]
    assert [s.delta for s in result.samples] == list(grid)
    simulated = np.array([s.p_simulated for s in result.samples])
    assert np.max(np.abs(simulated - np.array(expected))) <= 1e-15


class TestBatchedScan:
    @pytest.mark.parametrize("wait", SCAN_WAITS)
    @pytest.mark.parametrize("detuning_during_pulses", [False, True], ids=["frame", "kick"])
    @pytest.mark.parametrize("mode", list(PulseMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("n_ions", range(1, 9))
    def test_matches_single_state_reconstruction(self, monkeypatch, n_ions, mode, detuning_during_pulses, wait):
        # A 5-row budget puts chunk boundaries inside the grid at every N.
        chunk = 5
        monkeypatch.setattr(protocol, "SCAN_CHUNK_BYTES", chunk * make_params(n_ions).dim * 16)
        assert protocol._chunk_rows(make_params(n_ions)) == chunk
        for length in (1, chunk - 1, chunk, chunk + 1, SCAN_POINTS):
            assert_scan_matches_reconstruction(n_ions, mode, detuning_during_pulses, wait, length)

    @pytest.mark.parametrize("detuning_during_pulses", [False, True], ids=["frame", "kick"])
    @pytest.mark.parametrize("mode", list(PulseMode), ids=lambda m: m.value)
    def test_default_budget_at_eight_ions(self, mode, detuning_during_pulses):
        chunk = protocol._chunk_rows(make_params(8))
        assert chunk == protocol.SCAN_CHUNK_BYTES // (make_params(8).dim * 16) == 6
        for length in (1, chunk - 1, chunk, chunk + 1, SCAN_POINTS):
            assert_scan_matches_reconstruction(8, mode, detuning_during_pulses, WAIT, length)

    @pytest.mark.parametrize("detuning_during_pulses", [False, True], ids=["frame", "kick"])
    def test_one_chunk_alive_at_a_time(self, monkeypatch, detuning_during_pulses):
        # the memory check runs just before each chunk is allocated: every chunk read so far must be gone
        read_chunks = []

        def check_memory(n_amplitudes):
            assert [ref() for ref in read_chunks] == [None] * len(read_chunks)

        monkeypatch.setattr(protocol, "check_memory", check_memory)
        monkeypatch.setattr(protocol, "SCAN_CHUNK_BYTES", 2 * make_params(3).dim * 16)
        config = RamseyConfig(make_params(3), WAIT, (0.0,) * 5, detuning_during_pulses=detuning_during_pulses)
        out = protocol._ramsey_rows(config, np.zeros(5), lambda rows, clock: read_chunks.append(weakref.ref(rows)))
        assert out == [None] * 3 and len(read_chunks) == 3

    def test_large_states_run_one_row_per_chunk(self):
        assert protocol._chunk_rows(make_params(10)) == 1

    def test_run_is_the_one_point_scan(self):
        params = make_params(3)
        delta = 0.7 / WAIT
        config = RamseyConfig(params=params, wait_time=WAIT, detuning_grid=(delta,), mode=PulseMode.PHYSICAL)
        state, p = ramsey_run(config, delta)
        assert p == ramsey_scan(config).samples[0].p_simulated
        assert state.frame == Frame(FRAME_R_PRIME, detuning=delta)
        assert state.clock == WAIT + 2 * sum(pulse_duration(s, params) for s in preparation_sequence(params))

    def test_physical_scan_leakage_still_guarded(self):
        # with n_max = 1 the sideband pulse parks half the population at the cutoff
        config = RamseyConfig(
            params=make_params(3, nmax=1), wait_time=WAIT, detuning_grid=(0.0, 1e-6), mode=PulseMode.PHYSICAL
        )
        with pytest.raises(LeakageError):
            ramsey_scan(config)


class TestScanMemoryBudget:
    def test_oversized_state_rejected_before_allocation(self):
        config = RamseyConfig(params=make_params(40), wait_time=0.0, detuning_grid=(0.0,))
        with pytest.raises(SimulationError, match="physical memory"):
            ramsey_scan(config)

    def test_row_array_checked_before_allocation(self, monkeypatch):
        # room for the prepared state but not for a chunk of five rows beside it
        params = make_params(2)
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: 3 * params.dim * 16)
        config = RamseyConfig(
            params=params, wait_time=0.0, detuning_grid=(0.0,) * 5, detuning_during_pulses=True
        )
        with pytest.raises(SimulationError, match=f"{6 * params.dim} amplitudes need"):
            ramsey_scan(config)

    def test_prepared_row_counted_beside_the_chunk(self, monkeypatch):
        # room for five states: a five-row chunk fits alone, but not beside the one-row prepared start
        params = make_params(3)
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: 5 * params.dim * 16)
        config = RamseyConfig(params=params, wait_time=0.0, detuning_grid=(0.0,) * 5)
        with pytest.raises(SimulationError, match=f"{6 * params.dim} amplitudes need"):
            ramsey_scan(config)


class TestPreparationMemoryBudget:
    def test_step_snapshots_counted(self, monkeypatch):
        # the step snapshots store sector coefficients: the one whole array is the final state
        params = make_params(3)
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: params.dim * 16)
        prepare_max_entangled(params)
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: params.dim * 16 - 1)
        with pytest.raises(SimulationError, match=f"{params.dim} amplitudes need"):
            prepare_max_entangled(params)

    def test_reference_states_counted(self, monkeypatch):
        params = make_params(3)
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: 4 * params.dim * 16)
        with pytest.raises(SimulationError, match=f"{5 * params.dim} amplitudes need"):
            trajectory_reference(params, [1.0, 2.0, 3.0, 4.0, 5.0])


class TestScanValidity:
    def test_one_warning_per_scan(self):
        params = make_params(2)
        law = RabiLaw(params)
        bound = protocol.VALIDITY_RATIO * min(law.carrier(), law.jc(0), law.dispersive(1))
        grid = [0.5 * bound * k / 40 for k in range(40)] + [2.0 * bound * (k + 1) for k in range(10)]
        config = RamseyConfig(params=params, wait_time=10.0, detuning_grid=tuple(grid))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = ramsey_scan(config)
        assert len(result.samples) == 50
        assert len(caught) == 1
        assert issubclass(caught[0].category, UserWarning)
        message = str(caught[0].message)
        assert message.startswith("10 of 50 detunings")
        assert f"{20.0 * bound:.3e}" in message

    @pytest.mark.parametrize("entry", ["run", "scan"])
    def test_warning_points_at_the_caller(self, entry):
        config = RamseyConfig(params=make_params(2), wait_time=10.0, detuning_grid=(0.1,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ramsey_run(config, 0.1) if entry == "run" else ramsey_scan(config)
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("entry", ["run", "scan"])
    def test_memory_check_comes_first(self, entry):
        # at N=40 the detuning is outside the validity window and the state does not fit
        config = RamseyConfig(params=make_params(40), wait_time=1.0, detuning_grid=(1e-3,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match="physical memory"):
                ramsey_run(config, 1e-3) if entry == "run" else ramsey_scan(config)

    @pytest.mark.parametrize("entry", ["run", "scan"])
    @pytest.mark.parametrize("zero", ["base_rabi", "lamb_dicke"])
    def test_pulse_check_comes_before_the_warning(self, entry, zero):
        # a zero Rabi frequency puts every nonzero detuning outside the validity window, and no pulse can run
        params = make_params(2, rabi=0.0) if zero == "base_rabi" else make_params(2, eta=0.0)
        config = RamseyConfig(params=params, wait_time=1.0, detuning_grid=(1e-3,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PulseError, match="Rabi frequency must be positive"):
                ramsey_run(config, 1e-3) if entry == "run" else ramsey_scan(config)

    @pytest.mark.parametrize(
        "wait, delta, during, named",
        [(1e308, 1.0, False, "trap phase"), (1e10, 1e300, False, "detuning phase"), (0.0, 1e308, True, "detuning phase")],
        ids=["wait-trap-phase", "wait-detuning-phase", "during-pulses"],
    )
    def test_step_phase_check_comes_before_the_warning(self, wait, delta, during, named):
        # every step is checked at its start clock with the grid's largest |delta|, the later ones included
        config = RamseyConfig(make_params(2), wait, (1.0, -delta), detuning_during_pulses=during)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PulseError, match=named):
                ramsey_scan(config)

    def test_valid_grid_is_silent(self):
        grid = tuple(x / WAIT for x in np.linspace(-1.0, 1.0, 30))
        config = RamseyConfig(params=make_params(2), wait_time=WAIT, detuning_grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ramsey_scan(config)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("wait", [math.nan, math.inf])
    def test_wait_time(self, wait):
        with pytest.raises(ValueError, match="wait_time"):
            RamseyConfig(params=make_params(2), wait_time=wait, detuning_grid=(0.0,))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_detuning_grid_entry(self, bad):
        with pytest.raises(ValueError, match=r"detuning_grid\[1\]"):
            RamseyConfig(params=make_params(2), wait_time=WAIT, detuning_grid=(0.0, bad, 1e-6))

    def test_run_detuning(self):
        config = RamseyConfig(params=make_params(2), wait_time=WAIT, detuning_grid=(0.0,))
        with pytest.raises(ValueError, match="detuning"):
            ramsey_run(config, math.nan)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RamseyConfig(params=make_params(2), wait_time=-1.0, detuning_grid=(0.0,)),
            lambda: RamseyConfig(params=make_params(2), wait_time=WAIT, detuning_grid=(math.nan,)),
            lambda: ramsey_scan(RamseyConfig(params=make_params(2), wait_time=WAIT, detuning_grid=())),
        ],
        ids=["wait_time", "detuning_grid", "empty-grid"],
    )
    def test_scan_input_checks_raise_input_error(self, make):
        with pytest.raises(InputError):
            make()

    @pytest.mark.parametrize("omega0", [math.nan, math.inf, -math.inf])
    def test_omega0_rejected_before_any_allocation(self, monkeypatch, omega0):
        def no_state(*args, **kwargs):
            raise AssertionError("allocated a state")

        monkeypatch.setattr(protocol, "ground_state", no_state)
        monkeypatch.setattr(protocol, "_sector_ground_state", no_state)
        with pytest.raises(InputError, match="omega0 must be finite"):
            prepare_max_entangled(make_params(2), omega0=omega0)

    @pytest.mark.parametrize("omega0", [1e306, -1e306, math.nextafter(math.inf, 0.0)])
    def test_overflowing_phase_rejected_before_any_allocation(self, monkeypatch, omega0):
        def no_state(*args, **kwargs):
            raise AssertionError("allocated a state")

        monkeypatch.setattr(protocol, "ground_state", no_state)
        monkeypatch.setattr(protocol, "_sector_ground_state", no_state)
        with pytest.raises(InputError, match=r"omega0 must keep the lab-frame phase N\*omega0\*t5 finite"):
            prepare_max_entangled(make_params(2), omega0=omega0)

    def test_largest_finite_phase_reported(self):
        # the check rejects only what overflows: the same product, one notch smaller, is reported
        p = make_params(2)
        t5 = prepare_max_entangled(p).pulse_times[-1]
        omega0 = math.nextafter(math.inf, 0.0) / (p.n_ions * t5) / 2
        report = prepare_max_entangled(p, omega0=omega0)
        assert math.isfinite(report.phi_schroedinger)
        assert report.phi_schroedinger == p.n_ions * omega0 * t5
