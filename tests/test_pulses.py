import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ionpulse import (
    Frame,
    FRAME_R_PRIME,
    LeakageError,
    PulseError,
    PulseKind,
    PulseMode,
    PulseSpec,
    SimulationError,
    TrapParams,
    apply_pulse,
    dense_matrix,
    flat_index,
    free_evolve,
    ground_state,
    pulse_duration,
)
from ionpulse import prepare_max_entangled, pulses, seqlang
from ionpulse.hilbert import levels_view, populations
from ionpulse.pulses import _rabi_rate
from conftest import dicke_extreme, make_params, planned_step, random_state

SQRT2 = math.sqrt(2.0)


def headroom_state(params, rng, top_levels=2):
    """Random state with no support on the top Fock levels, so physical
    sideband pulses cannot push population past the cutoff."""
    s = random_state(params, rng)
    s.blocks[params.n_levels - top_levels :] = 0.0
    s.amplitudes /= np.linalg.norm(s.amplitudes)
    return s


def jc_rate(p, n):
    return _rabi_rate(PulseKind.JC_PI, p, n)


def dispersive_rate(p, n):
    return _rabi_rate(PulseKind.DISPERSIVE_SINGLE_PI, p, n)


class TestRabiRate:
    def test_values(self):
        p = make_params(4, eta=0.2, rabi=3.0)
        assert _rabi_rate(PulseKind.CARRIER_PI_HALF, p, 0) == 3.0
        assert jc_rate(p, 0) == pytest.approx(3.0 * 0.2 / 2.0)
        assert jc_rate(p, 3) == pytest.approx(3.0 * 0.2 * 2.0 / 2.0)
        assert dispersive_rate(p, 0) == 0.0
        assert dispersive_rate(p, 2) == pytest.approx(3.0 * 0.04 * 2 / 4)

    def test_jc_strictly_increasing(self):
        p = make_params(3)
        rates = [jc_rate(p, n) for n in range(6)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_durations(self):
        p = make_params(2, eta=0.1, rabi=2.0)
        assert pulse_duration(PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1), p) == pytest.approx(
            math.pi / 4.0
        )
        assert pulse_duration(PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=0), p) == pytest.approx(
            math.pi / (2.0 * 0.1 / SQRT2)
        )
        assert pulse_duration(PulseSpec(PulseKind.WAIT, duration=2.5), p) == 2.5


class TestCarrier:
    def test_ground_to_superposition(self):
        p = make_params(2)
        s = ground_state(p)
        apply_pulse(s, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=2))
        assert s.amplitude(0b00, 0) == pytest.approx(1 / SQRT2)
        assert s.amplitude(0b10, 0) == pytest.approx(1 / SQRT2)
        assert s.clock == pytest.approx(math.pi / 2)

    def test_excited_to_difference(self):
        p = make_params(1)
        s = dicke_extreme(p, "highest", 0)
        apply_pulse(s, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1))
        assert s.amplitude(0, 0) == pytest.approx(-1 / SQRT2)
        assert s.amplitude(1, 0) == pytest.approx(1 / SQRT2)

    def test_fock1_free_phase(self):
        # |g>|1> picks up exp(-i nu t_pulse) on both branches; dense oracle alongside
        p = make_params(1, nu=1.3)
        before = dicke_extreme(p, "lowest", 1)
        vec = before.amplitudes.copy()
        s = before
        apply_pulse(s, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1))
        t_pulse = math.pi / 2.0
        expected = np.exp(-1j * 1.3 * t_pulse) / SQRT2
        assert s.amplitude(0, 1) == pytest.approx(expected, abs=1e-15)
        assert s.amplitude(1, 1) == pytest.approx(expected, abs=1e-15)
        dense = dense_matrix(PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1), p)
        assert np.allclose(dense @ vec, s.amplitudes, atol=1e-14)

    def test_laser_phase_lands_on_raising_part(self):
        p = make_params(1)
        phi = 0.77
        s = ground_state(p)
        apply_pulse(s, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1, laser_phase=phi))
        assert s.amplitude(0, 0) == pytest.approx(1 / SQRT2)
        assert s.amplitude(1, 0) == pytest.approx(np.exp(1j * phi) / SQRT2)

    def test_zero_rabi_rejected(self):
        p = TrapParams(n_ions=1, trap_freq=1.0, lamb_dicke=0.1, base_rabi=0.0, fock_cutoff=2)
        with pytest.raises(PulseError):
            apply_pulse(ground_state(p), PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1))


class TestJaynesCummings:
    def test_excited_to_motion(self):
        # |e>|0> -> i exp(-i nu t_end) |g>|1> for a pulse starting at t0
        p = make_params(1, nu=0.9)
        s = dicke_extreme(p, "highest", 0)
        s.clock = 2.0
        apply_pulse(s, PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=0))
        t_end = s.clock
        assert t_end == pytest.approx(2.0 + math.pi / jc_rate(p, 0))
        assert s.amplitude(0, 1) == pytest.approx(1j * np.exp(-1j * 0.9 * t_end), abs=1e-14)

    def test_motion_back_to_excited(self):
        # |g>|1> -> i exp(+i nu t0) |e>|0>
        p = make_params(1, nu=0.9)
        s = dicke_extreme(p, "lowest", 1)
        s.clock = 5.0
        apply_pulse(s, PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=0))
        assert s.amplitude(1, 0) == pytest.approx(1j * np.exp(1j * 0.9 * 5.0), abs=1e-14)

    def test_ground_corner_untouched_both_modes(self):
        rng = np.random.default_rng(7)
        p = make_params(2)
        for mode in PulseMode:
            s = headroom_state(p, rng)
            # (g, 0) slots for ion 2 are bit words without bit 1 set
            before = s.blocks[0][[0, 1]].tobytes()
            apply_pulse(s, PulseSpec(PulseKind.JC_PI, target_ion=2, target_n=0, mode=mode))
            assert s.blocks[0][[0, 1]].tobytes() == before

    def test_physical_off_target_rotation_expm_oracle(self):
        # pair (|g,2>, |e,1>) rotates by pi*sqrt(2) during a target-0 pi pulse
        p = TrapParams(n_ions=1, trap_freq=2.0, lamb_dicke=1.0, base_rabi=1.0, fock_cutoff=4)
        s = dicke_extreme(p, "lowest", 2)
        apply_pulse(s, PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=0, mode=PulseMode.PHYSICAL))
        duration = math.pi  # pi / (1 * 1 * 1)
        theta = math.pi * SQRT2
        coupling = np.array([[0.0, 1.0], [1.0, 0.0]])  # alpha = nu*t0 = 0
        rotation = expm(1j * (theta / 2.0) * coupling)
        free = np.diag([np.exp(-1j * 2.0 * 2 * duration), np.exp(-1j * 2.0 * 1 * duration)])
        expected = free @ rotation @ np.array([1.0, 0.0])
        assert s.amplitude(0, 2) == pytest.approx(expected[0], abs=1e-13)
        assert s.amplitude(1, 1) == pytest.approx(expected[1], abs=1e-13)
        # nu * 2 * duration = 4 pi, so the free phase drops out of the residual
        assert s.amplitude(0, 2) == pytest.approx(math.cos(math.pi * SQRT2 / 2.0), abs=1e-13)

    def test_target_out_of_cutoff(self):
        p = make_params(1, nmax=2)
        with pytest.raises(PulseError):
            apply_pulse(ground_state(p), PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=2))

    def test_zero_coupling_rejected(self):
        p = make_params(1, eta=0.0)
        with pytest.raises(PulseError):
            apply_pulse(ground_state(p), PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=0))


class TestDispersiveSingle:
    def test_flip_on_target_level(self):
        # |e>|1> -> -exp(-i nu t_pulse)|g>|1>
        p = make_params(1, nu=1.1)
        s = dicke_extreme(p, "highest", 1)
        apply_pulse(s, PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=1, target_n=1))
        t_pulse = math.pi / dispersive_rate(p, 1)
        assert s.amplitude(0, 1) == pytest.approx(-np.exp(-1j * 1.1 * t_pulse), abs=1e-14)

    def test_ground_level_exactly_untouched(self):
        rng = np.random.default_rng(11)
        p = make_params(2)
        for mode in PulseMode:
            s = headroom_state(p, rng)
            before = s.blocks[0].tobytes()
            apply_pulse(s, PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=1, target_n=1, mode=mode))
            assert s.blocks[0].tobytes() == before

    def test_two_pi_rotation_physical_expm_oracle(self):
        # |e>|2> under a target-1 physical pulse: theta = 2 pi, overall -1
        p = make_params(1, nu=0.7)
        s = dicke_extreme(p, "highest", 2)
        apply_pulse(s, PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=1, target_n=1, mode=PulseMode.PHYSICAL))
        duration = math.pi / dispersive_rate(p, 1)
        generator = np.array([[0.0, -1.0], [1.0, 0.0]])  # e^{i phase}=1
        rotation = expm((2 * math.pi / 2.0) * generator)
        expected = np.exp(-1j * 0.7 * 2 * duration) * (rotation @ np.array([0.0, 1.0]))
        assert s.amplitude(0, 2) == pytest.approx(expected[0], abs=1e-13)
        assert s.amplitude(1, 2) == pytest.approx(expected[1], abs=1e-13)
        assert s.amplitude(1, 2) == pytest.approx(-np.exp(-1j * 0.7 * 2 * duration), abs=1e-13)

    def test_target_zero_rejected(self):
        p = make_params(1)
        with pytest.raises(PulseError):
            apply_pulse(ground_state(p), PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=1, target_n=0))


class TestDispersiveCollective:
    def test_all_ground_flips_to_all_excited(self):
        p = make_params(3, nu=1.7)
        s = dicke_extreme(p, "lowest", 1)
        apply_pulse(s, PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1))
        t_pulse = math.pi / dispersive_rate(p, 1)
        assert s.amplitude(0b111, 1) == pytest.approx(np.exp(-1j * 1.7 * t_pulse), abs=1e-14)

    def test_ground_motion_unchanged(self):
        p = make_params(3)
        s = dicke_extreme(p, "lowest", 0)
        before = s.amplitudes.copy()
        apply_pulse(s, PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1))
        assert np.array_equal(s.amplitudes, before)

    def test_all_excited_sign_dense_oracle(self):
        # |e e>|1> -> (-1)^2 exp(-i nu t)|g g>|1>
        p = make_params(2, nu=1.0)
        s = dicke_extreme(p, "highest", 1)
        vec = s.amplitudes.copy()
        spec = PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1)
        dense = dense_matrix(spec, p)
        apply_pulse(s, PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1))
        t_pulse = math.pi / dispersive_rate(p, 1)
        assert s.amplitude(0b00, 1) == pytest.approx(np.exp(-1j * t_pulse), abs=1e-14)
        assert np.allclose(dense @ vec, s.amplitudes, atol=1e-13)

    def test_single_ion_degenerate_case_matches_single(self):
        rng = np.random.default_rng(13)
        p = make_params(1)
        a = headroom_state(p, rng)
        b = a.copy()
        apply_pulse(a, PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, mode=PulseMode.PHYSICAL))
        apply_pulse(b, PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=1, target_n=1, mode=PulseMode.PHYSICAL))
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-14)


    @pytest.mark.parametrize("mode", list(PulseMode), ids=lambda m: m.value)
    def test_protocol_collective_pulses_take_the_reversal(self, monkeypatch, mode):
        # The preparation's collective pulse (window top 1) and those of a
        # .pseq prefix on |g..g>|0> (top 0) are all pi: never the per-ion loop.
        # Every collective step is recorded, those that write nothing and reach no kernel included.
        step_rows, rotate_one = pulses._step_rows, pulses._rotate_one_ion
        turns, collective = [], []

        def one_ion(amplitudes, params, ion, *rest):
            turns.append(ion)
            rotate_one(amplitudes, params, ion, *rest)

        def step(amplitudes, params, spec, *rest):
            top, before = pulses._fock_top(amplitudes, params), len(turns)
            levels = step_rows(amplitudes, params, spec, *rest)
            if spec.kind is PulseKind.DISPERSIVE_COLLECTIVE_PI:
                collective.append((top, len(turns) - before))
            return levels

        monkeypatch.setattr(pulses, "_rotate_one_ion", one_ion)
        monkeypatch.setattr(pulses, "_step_rows", step)
        prepare_max_entangled(make_params(4), mode)
        suffix = " mode=physical" if mode is PulseMode.PHYSICAL else ""
        prefix = ["wait T=2.5", "jc_pi ion=2 n=1", "disp_pi ion=1 n=2", "disp_pi all n=1", "disp_pi all n=3"]
        canonical = ["carrier_pi2 ion=4", "jc_pi ion=4 n=0", "disp_pi all n=1", "disp_pi ion=4 n=1", "jc_pi ion=4 n=0"]
        lines = [line if line.startswith(("wait", "carrier")) else line + suffix for line in prefix + canonical]
        program, diagnostics = seqlang.parse("\n".join(["ions N=4", "trap nmax=3", *lines]) + "\n")
        assert not diagnostics
        seqlang.execute(program)
        assert collective == [(1, 0), (0, 0), (0, 0), (1, 0)]


class TestFreeEvolution:
    def test_pure_vibrational_phase(self):
        p = make_params(2, nu=1.4)
        s = dicke_extreme(p, "lowest", 1)
        free_evolve(s, 3.0)
        assert s.amplitude(0, 1) == pytest.approx(np.exp(-1j * 1.4 * 3.0), abs=1e-15)
        assert s.clock == 3.0

    def test_detuned_frame_counts_excited_ions(self):
        delta = 0.05
        p = make_params(2)
        frame = Frame(FRAME_R_PRIME, detuning=delta)
        s = dicke_extreme(p, "highest", 0, frame=frame)
        free_evolve(s, 7.0)
        assert s.amplitude(0b11, 0) == pytest.approx(np.exp(-1j * 2 * delta * 7.0), abs=1e-15)

    def test_zero_detuning_leaves_electronic_untouched(self):
        rng = np.random.default_rng(17)
        p = make_params(2)
        s = random_state(p, rng)
        pops_before = np.abs(s.blocks[0]) ** 2
        free_evolve(s, 2.0)
        assert np.array_equal(np.abs(s.blocks[0]) ** 2, pops_before)

    def test_composition(self):
        rng = np.random.default_rng(19)
        p = make_params(2, nu=0.81)
        a = random_state(p, rng)
        b = a.copy()
        free_evolve(free_evolve(a, 0.75), 1.5)
        free_evolve(b, 2.25)
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)
        assert a.clock == b.clock

    def test_negative_duration_rejected(self):
        p = make_params(1)
        with pytest.raises(PulseError):
            free_evolve(ground_state(p), -1.0)


ALL_SPECS = [
    PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1),
    PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=2, laser_phase=0.4),
    PulseSpec(PulseKind.JC_PI, target_ion=2, target_n=0),
    PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=1, mode=PulseMode.PHYSICAL),
    PulseSpec(PulseKind.JC_PI, target_ion=2, target_n=0, mode=PulseMode.PHYSICAL, laser_phase=1.1),
    PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=1, target_n=1),
    PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=2, target_n=2, mode=PulseMode.PHYSICAL),
    PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1),
    PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, mode=PulseMode.PHYSICAL, laser_phase=-0.3),
    PulseSpec(PulseKind.WAIT, duration=2.125),
]


def every_spec(params, ions, phases):
    """A wait plus every kind, mode, valid target_n and listed ion, at each laser phase."""
    specs = [PulseSpec(PulseKind.WAIT, duration=2.125)]
    nmax = params.fock_cutoff
    for phase in phases:
        specs += [PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=ion, laser_phase=phase) for ion in ions]
        for mode in PulseMode:
            for n in range(nmax):
                specs += [PulseSpec(PulseKind.JC_PI, ion, n, mode, laser_phase=phase) for ion in ions]
            for n in range(1, nmax + 1):
                specs += [PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, ion, n, mode, laser_phase=phase) for ion in ions]
                specs.append(PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=n, mode=mode, laser_phase=phase))
    return specs


class TestDenseOracle:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind.value}-{s.mode.value}")
    def test_unitarity(self, spec):
        p = make_params(2, nmax=3, nu=1.23, eta=0.17, rabi=0.9)
        matrix = dense_matrix(spec, p, t0=0.6)
        eye = np.eye(p.dim)
        assert np.max(np.abs(matrix.conj().T @ matrix - eye)) <= 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind.value}-{s.mode.value}")
    def test_matches_matrix_free(self, spec):
        rng = np.random.default_rng(23)
        p = make_params(2, nmax=3, nu=1.23, eta=0.17, rabi=0.9)
        matrix = dense_matrix(spec, p, t0=0.6)
        for _ in range(10):
            s = random_state(p, rng, clock=0.6)
            expected = matrix @ s.amplitudes
            apply_pulse(s, spec, check_leakage=False)
            assert np.max(np.abs(s.amplitudes - expected)) <= 1e-12

    def test_ideal_physical_agree_on_targeted_columns(self):
        p = make_params(2, nmax=4, nu=1.0, eta=0.2, rabi=1.0)
        # sideband: targeted columns are |g,n+1> and |e,n> for every other-bit word
        n = 1
        ideal = dense_matrix(PulseSpec(PulseKind.JC_PI, target_ion=2, target_n=n), p, t0=0.3)
        phys = dense_matrix(
            PulseSpec(PulseKind.JC_PI, target_ion=2, target_n=n, mode=PulseMode.PHYSICAL), p, t0=0.3
        )
        cols = []
        for bits in range(p.n_configs):
            if bits & 0b10:
                cols.append(flat_index(p, bits, n))
            else:
                cols.append(flat_index(p, bits, n + 1))
        assert np.max(np.abs(ideal[:, cols] - phys[:, cols])) <= 1e-12
        # dispersive: targeted level n plus the whole n = 0 block
        for kind in (PulseKind.DISPERSIVE_SINGLE_PI, PulseKind.DISPERSIVE_COLLECTIVE_PI):
            ideal = dense_matrix(PulseSpec(kind, target_ion=1, target_n=2), p)
            phys = dense_matrix(PulseSpec(kind, target_ion=1, target_n=2, mode=PulseMode.PHYSICAL), p)
            cols = [flat_index(p, bits, level) for level in (0, 2) for bits in range(p.n_configs)]
            assert np.max(np.abs(ideal[:, cols] - phys[:, cols])) <= 1e-12

    @pytest.mark.parametrize("nmax", [2, 3])
    @pytest.mark.parametrize("n_ions", range(1, 10))
    def test_every_spec_matches_dense_across_ion_groups(self, n_ions, nmax):
        # N = 1..9 runs the physical collective pulse's per-ion loop over one
        # to nine ions, each at every bit position up to the most significant
        rng = np.random.default_rng(100 * n_ions + nmax)
        p = make_params(n_ions, nmax=nmax, nu=1.23, eta=0.17, rabi=0.9)
        ions = sorted({1, (n_ions + 1) // 2, n_ions})
        rows = rng.standard_normal((3, p.dim)) + 1j * rng.standard_normal((3, p.dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for spec in every_spec(p, ions, (0.0, 0.37)):
            out = rows.copy()
            planned_step(out, p, spec, 0.6, check_leakage=False)
            expected = rows @ dense_matrix(spec, p, t0=0.6).T
            assert np.max(np.abs(out - expected)) <= 1e-12, spec

    def test_dimension_limit(self):
        p = make_params(10, nmax=4)
        with pytest.raises(PulseError):
            dense_matrix(PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1), p)


class TestInvariants:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind.value}-{s.mode.value}")
    def test_inner_products_preserved(self, spec):
        rng = np.random.default_rng(29)
        p = make_params(2, nmax=3, nu=0.77, eta=0.21, rabi=1.3)
        for _ in range(5):
            a = random_state(p, rng, clock=1.0)
            b = random_state(p, rng, clock=1.0)
            before = np.vdot(a.amplitudes, b.amplitudes)
            apply_pulse(a, spec, check_leakage=False)
            apply_pulse(b, spec, check_leakage=False)
            after = np.vdot(a.amplitudes, b.amplitudes)
            assert abs(after - before) <= 1e-12

    def test_clock_discipline(self):
        p = make_params(2)
        s = ground_state(p)
        spec = PulseSpec(PulseKind.JC_PI, target_ion=2, target_n=0)
        t0 = s.clock
        apply_pulse(s, spec)
        assert s.clock == t0 + pulse_duration(spec, p)

    def test_leakage_guard_trips(self):
        p = make_params(1, nmax=4)
        s = dicke_extreme(p, "highest", 3)
        with pytest.raises(LeakageError):
            apply_pulse(s, PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=3))

    def test_leakage_guard_bypass(self):
        p = make_params(1, nmax=4)
        s = dicke_extreme(p, "highest", 3)
        apply_pulse(s, PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=3), check_leakage=False)
        assert abs(s.amplitude(0, 4)) == pytest.approx(1.0)

    def test_norm_drift_detected(self):
        p = make_params(1)
        s = ground_state(p)
        s.amplitudes *= 0.5
        with pytest.raises(SimulationError):
            apply_pulse(s, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1))

    def test_ion_index_validated(self):
        p = make_params(2)
        with pytest.raises(PulseError):
            apply_pulse(ground_state(p), PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=3))
        with pytest.raises(PulseError):
            apply_pulse(ground_state(p), PulseSpec(PulseKind.JC_PI, target_ion=0, target_n=0))


class TestBatchAxis:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind.value}-{s.mode.value}")
    def test_rows_match_single_states(self, spec):
        # one call on a (rows, dim) array gives each row the bits a single-state call gives it
        rng = np.random.default_rng(31)
        p = make_params(2, nmax=3, nu=1.23, eta=0.17, rabi=0.9)
        detunings = np.array([0.0, 0.013, -0.2])
        states = [random_state(p, rng, Frame(FRAME_R_PRIME, detuning=d), clock=0.6) for d in detunings]
        rows = np.array([s.amplitudes for s in states])
        duration, _ = planned_step(rows, p, spec, 0.6, detunings, check_leakage=False)
        for row, state in zip(rows, states):
            apply_pulse(state, spec, check_leakage=False)
            assert row.tobytes() == state.amplitudes.tobytes()
            assert state.clock == 0.6 + duration

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9], ids=["grown", "shrunk"])
    def test_one_drifted_row_trips_the_norm_guard(self, scale):
        p = make_params(2)
        rows = np.repeat(ground_state(p).amplitudes[None, :], 4, axis=0)
        rows[2] *= scale
        with pytest.raises(SimulationError, match="row 2"):
            planned_step(rows, p, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1), 0.0)

    def test_one_leaking_row_trips_the_leakage_guard(self):
        p = make_params(1, nmax=4)
        rows = np.repeat(dicke_extreme(p, "lowest", 0).amplitudes[None, :], 3, axis=0)
        rows[1] = dicke_extreme(p, "highest", 3).amplitudes
        with pytest.raises(LeakageError):
            planned_step(rows, p, PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=3), 0.0)

    def test_guards_agree_with_plain_numpy_on_batch_rows(self):
        # rows on a (2, 3) batch: the guard's per-level populations are what |a|^2 sums give
        rng = np.random.default_rng(17)
        p = make_params(3, nmax=3)
        rows = np.array([[headroom_state(p, rng).amplitudes for _ in range(3)] for _ in range(2)])
        levels = populations(levels_view(rows, p))
        plain = (np.abs(rows.reshape(2, 3, p.n_levels, p.n_configs)) ** 2).sum(axis=-1)
        assert np.allclose(levels, plain, rtol=1e-14, atol=1e-300)
        assert np.allclose(np.sqrt(levels.sum(axis=-1)), np.linalg.norm(rows, axis=-1), rtol=0, atol=1e-15)
        planned_step(rows, p, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=2), 0.0)

    def test_nan_row_names_the_row(self):
        p = make_params(2)
        rows = np.repeat(ground_state(p).amplitudes[None, :], 4, axis=0)
        rows[3, 7] = np.nan
        with pytest.raises(SimulationError, match=r"drifted to nan in row 3"):
            planned_step(rows, p, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1), 0.0)

    def test_row_with_population_at_the_cutoff_leaks(self):
        # a carrier moves nothing between Fock levels: row 2's weight at the cutoff stays there
        p = make_params(2, nmax=2)
        rows = np.repeat(ground_state(p).amplitudes[None, :], 3, axis=0)
        rows[2, 0] = math.sqrt(1.0 - 1e-8)
        rows[2, flat_index(p, 1, 2)] = 1e-4
        with pytest.raises(LeakageError, match="1.000e-08 at the Fock cutoff n=2"):
            planned_step(rows, p, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1), 0.0)
        planned_step(rows, p, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1), 0.0, check_leakage=False)

    def test_nan_state_trips_the_norm_guard(self):
        s = ground_state(make_params(1))
        s.amplitudes[0] = np.nan
        with pytest.raises(SimulationError):
            free_evolve(s, 1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_wait_rejected(self, duration):
        with pytest.raises(PulseError, match="finite"):
            free_evolve(ground_state(make_params(1)), duration)

    def test_non_finite_laser_phase_rejected(self):
        with pytest.raises(PulseError, match="laser_phase"):
            apply_pulse(ground_state(make_params(1)), PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1, laser_phase=math.nan))


class TestNonFiniteClockOrPhase:
    """A step whose end time or a phase it forms is not finite raises PulseError before it changes any amplitude."""

    @staticmethod
    def assert_rejected(rows, match, call):
        before = rows.copy()
        with pytest.raises(PulseError, match=match):
            call()
        assert rows.tobytes() == before.tobytes()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind.value}-{s.mode.value}")
    def test_infinite_start_time(self, spec):
        p = make_params(2, nmax=3)
        rows = windowed_rows(p, np.random.default_rng(5), (1, 2))
        self.assert_rejected(rows, "clock", lambda: planned_step(rows, p, spec, math.inf, check_leakage=False))

    def test_clock_overflowing_at_the_end_of_a_wait(self):
        p = make_params(2, nu=1e-10)
        rows = windowed_rows(p, np.random.default_rng(6), (1,))
        wait = PulseSpec(PulseKind.WAIT, duration=1e308)
        self.assert_rejected(rows, "clock", lambda: planned_step(rows, p, wait, 1e308))

    def test_trap_phase_counts_every_level_up_to_the_cutoff(self):
        # nu * 4 * T overflows although the state occupies level 0 only
        p = make_params(2, nmax=4)
        rows = ground_state(p).amplitudes[None, :].copy()
        wait = PulseSpec(PulseKind.WAIT, duration=1e308)
        self.assert_rejected(rows, "trap phase", lambda: planned_step(rows, p, wait, 0.0))
        planned_step(rows, p, PulseSpec(PulseKind.WAIT, duration=0.0), 1e308)  # a zero wait forms no phase

    def test_sideband_phase(self):
        p = make_params(2, nmax=1, nu=2.0)
        rows = ground_state(p).amplitudes[None, :].copy()
        spec = PulseSpec(PulseKind.JC_PI, target_ion=2, target_n=0)
        self.assert_rejected(rows, "sideband phase", lambda: planned_step(rows, p, spec, 1.6e308))

    def test_detuning_phase_of_one_row(self):
        p = make_params(3)
        rows = windowed_rows(p, np.random.default_rng(7), (0, 2))
        wait = PulseSpec(PulseKind.WAIT, duration=1e10)
        detunings = np.array([0.1, 1e300])
        self.assert_rejected(rows, "detuning phase", lambda: planned_step(rows, p, wait, 0.0, detunings))
        self.assert_rejected(rows, "detuning phase", lambda: pulses._check_detuning_phase(float(np.abs(detunings).max()), 1e10, p.n_ions))

    def test_wait_forms_its_detuning_bound_once(self, monkeypatch):
        p = make_params(3)
        rows = windowed_rows(p, np.random.default_rng(8), (0, 2))
        calls = []
        check = pulses._check_detuning_phase
        monkeypatch.setattr(pulses, "_check_detuning_phase", lambda *args: calls.append(args) or check(*args))
        planned_step(rows, p, PulseSpec(PulseKind.WAIT, duration=3.0), 0.0, np.array([0.1, -0.2]))
        assert len(calls) == 1
        planned_step(rows, p, PulseSpec(PulseKind.WAIT, duration=3.0), 3.0, np.array([0.1, -0.2]))  # the next wait forms its own
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "detunings, duration",
        [(np.array([1e308, -1e308]), 0.0), (np.zeros(2), 2.5), (0.0, 1e308)],
        ids=["zero-duration", "zero-detunings", "zero-detuning"],
    )
    def test_detuning_phase_skips_a_zero_phase(self, detunings, duration):
        # an infinite amplitude times the unit phase would gain a NaN part: the skip leaves every byte of
        # level 0, which takes no free phase (nu keeps the trap phase of the 1e308 wait finite)
        p = make_params(3, nu=1e-300)
        rows = windowed_rows(p, np.random.default_rng(9), (0, 2))
        rows[0, 1], rows[1, 2] = complex(math.inf, 0.0), complex(0.0, -0.0)
        before = levels_view(rows, p)[:, 0].tobytes()
        with pytest.raises(SimulationError, match="norm"):  # the guard reads the infinite amplitude after the wait
            planned_step(rows, p, PulseSpec(PulseKind.WAIT, duration=duration), 0.0, detunings)
        assert levels_view(rows, p)[:, 0].tobytes() == before


def windowed_rows(params, rng, tops):
    """Normalized random rows, row i supported on Fock levels 0 .. tops[i] and exactly zero above."""
    rows = rng.standard_normal((len(tops), params.dim)) + 1j * rng.standard_normal((len(tops), params.dim))
    for row, top in zip(rows, tops):
        row[(top + 1) * params.n_configs :] = 0.0
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestFockWindow:
    """Kernels act on Fock levels 0 .. top only; the result must still be the full unitary."""

    @pytest.mark.parametrize("nmax", [2, 3])
    @pytest.mark.parametrize("n_ions", range(1, 7))
    def test_every_spec_matches_dense_at_every_top(self, n_ions, nmax):
        rng = np.random.default_rng(200 * n_ions + nmax)
        p = make_params(n_ions, nmax=nmax, nu=1.23, eta=0.17, rabi=0.9)
        # one row per window top, plus a batch whose window is the union of its rows' tops
        cases = [windowed_rows(p, rng, (top,)) for top in range(nmax + 1)]
        cases.append(windowed_rows(p, rng, (0, nmax - 1, 1)))
        for spec in every_spec(p, sorted({1, n_ions}), (0.0, 0.37)):
            matrix = dense_matrix(spec, p, t0=0.6)
            for rows in cases:
                out = rows.copy()
                planned_step(out, p, spec, 0.6, check_leakage=False)
                assert np.max(np.abs(out - rows @ matrix.T)) <= 1e-12, (spec, rows.shape)

    @pytest.mark.parametrize("level", [2, 4])
    def test_nan_in_an_empty_level_trips_the_norm_guard(self, level):
        p = make_params(3, nmax=4)
        for spec in [*every_spec(p, (3,), (0.0,)), PulseSpec(PulseKind.WAIT, duration=0.0)]:
            state = ground_state(p)
            state.blocks[level, 5] = np.nan
            assert pulses._fock_top(state.amplitudes, p) == level
            with pytest.raises(SimulationError, match="norm"):
                apply_pulse(state, spec, check_leakage=False)

    @settings(max_examples=80)
    @given(
        n_ions=st.integers(1, 4),
        nmax=st.integers(1, 4),
        nu=st.floats(0.05, 20.0),
        eta=st.floats(0.05, 0.5),
        rabi=st.floats(0.1, 10.0),
        phase=st.floats(-math.pi, math.pi),
        t0=st.floats(0.0, 50.0),
        choice=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_windowed_pulse_equals_dense_oracle(self, n_ions, nmax, nu, eta, rabi, phase, t0, choice, data):
        p = make_params(n_ions, nmax=nmax, nu=nu, eta=eta, rabi=rabi)
        specs = every_spec(p, range(1, n_ions + 1), (phase,))
        spec = specs[choice % len(specs)]
        tops = data.draw(st.lists(st.integers(0, nmax), min_size=1, max_size=3), label="tops")
        rows = windowed_rows(p, np.random.default_rng(choice), tops)
        out = rows.copy()
        planned_step(out, p, spec, t0, check_leakage=False)
        assert np.max(np.abs(out - rows @ dense_matrix(spec, p, t0=t0).T)) <= 1e-12, spec


class TestScalarForms:
    """A one-level free phase and a one-angle rotation take scalars; their bytes must be those of the per-level columns."""

    @staticmethod
    def cases(params, rng):
        """Whole rows, a batch of rows with zeros in them, and one state's sector coefficients."""
        whole = windowed_rows(params, rng, (params.fock_cutoff,))[0]
        batch = windowed_rows(params, rng, (0, 2, params.fock_cutoff))
        batch[1, ::3] = -0.0
        sector = rng.standard_normal(2 * params.n_ions * params.n_levels) + 1j * rng.standard_normal(2 * params.n_ions * params.n_levels)
        return [whole, batch, sector / np.linalg.norm(sector)]

    @pytest.mark.parametrize("n_ions", [1, 3, 5])
    def test_one_level_free_phase_equals_the_column_entry(self, n_ions):
        rng = np.random.default_rng(250 + n_ions)
        p = make_params(n_ions, nmax=3, nu=1.37)
        for rows in self.cases(p, rng):
            for duration in (0.3, 2.5, 41.7, 1e5):
                want = rows.copy()
                levels_view(want, p)[..., 1:2, :] *= pulses._free_phases.__wrapped__(p.trap_freq, duration, 1)
                got = rows.copy()
                pulses._apply_free_phases(got, p, duration, 1)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", list(PulseMode))
    @pytest.mark.parametrize("n_ions", [1, 3, 5])
    def test_one_angle_table_equals_per_level_columns(self, n_ions, mode):
        rng = np.random.default_rng(260 + n_ions)
        p = make_params(n_ions, nmax=3)
        tables = [(PulseKind.CARRIER_PI_HALF, 0, top, 0) for top in range(4)]
        tables += [(PulseKind.JC_PI, 0, 0, 1), (PulseKind.DISPERSIVE_SINGLE_PI, 2, 1, 0)]
        for kind, target_n, top, shift in tables:
            levels, cos, sin, all_pi = table = pulses._angle_table(kind, mode, target_n, p.n_levels, top)
            if all_pi:
                continue
            assert isinstance(cos, complex) and isinstance(sin, complex)
            count = levels.stop - levels.start
            columns = (levels, np.full((count, 1, 1), cos), np.full((count, 1, 1), sin), all_pi)
            for rows in self.cases(p, rng):
                for u in (np.exp(0.4j), 1j * np.exp(-2.1j)):
                    want, got = rows.copy(), rows.copy()
                    pulses._rotate_one_ion(want, p, n_ions, columns, shift, u)
                    pulses._rotate_one_ion(got, p, n_ions, table, shift, u)
                    assert got.tobytes() == want.tobytes(), (kind, top)
