import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ionpulse import (
    FRAME_R,
    FRAME_R_PRIME,
    Frame,
    InputError,
    PulseKind,
    PulseMode,
    PulseSpec,
    SimulationError,
    StateVector,
    TrapParams,
    apply_pulse,
    excited_population,
    fidelity,
    flat_index,
    fock_populations,
    ground_state,
    prepare_max_entangled,
)
from ionpulse import hilbert
from conftest import assert_exact_copy, dicke_extreme, make_params, random_state, split_index, target_ghz


class TestParams:
    def test_valid(self):
        p = make_params(2, nmax=2)
        assert p.dim == 4 * 3
        assert p.n_levels == 3
        assert p.n_configs == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_ions=0, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=4),
            dict(n_ions=2, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=0),
            dict(n_ions=2, trap_freq=0.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=4),
            dict(n_ions=2, trap_freq=1.0, lamb_dicke=-0.1, base_rabi=1.0, fock_cutoff=4),
            dict(n_ions=2, trap_freq=1.0, lamb_dicke=0.1, base_rabi=-1.0, fock_cutoff=4),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrapParams(**kwargs)

    @pytest.mark.parametrize("field", ["trap_freq", "lamb_dicke", "base_rabi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_fields(self, field, value):
        kwargs = dict(n_ions=2, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=4)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            TrapParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_frame_detuning(self, value):
        with pytest.raises(ValueError, match="detuning"):
            Frame(FRAME_R_PRIME, detuning=value)

    @pytest.mark.parametrize("tag", [FRAME_R, FRAME_R_PRIME])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_frame_reference_freq(self, value, tag):
        # a dump would otherwise write NaN or Infinity, which is not JSON
        with pytest.raises(InputError, match=f"reference_freq must be finite, got {value!r}"):
            Frame(tag, reference_freq=value)
        dump = ground_state(make_params(1, nmax=1), Frame(tag, reference_freq=-2.5)).dump_json()
        assert json.loads(dump, parse_constant=pytest.fail)["frame"]["reference_freq"] == -2.5

    def test_frame_r_requires_zero_detuning(self):
        with pytest.raises(ValueError):
            Frame(FRAME_R, detuning=0.5)
        Frame(FRAME_R_PRIME, detuning=0.5)  # fine
        with pytest.raises(ValueError):
            Frame("lab")


class TestInputError:
    """Bad input raises InputError, the CLI's usage error; a caller's index or shape bug stays a plain ValueError."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_params(0),
            lambda: make_params(2, nu=math.nan),
            lambda: Frame(FRAME_R, detuning=0.5),
            lambda: Frame("lab"),
            lambda: Frame(FRAME_R_PRIME, detuning=math.inf),
            lambda: Frame(FRAME_R, reference_freq=math.nan),
        ],
        ids=["n_ions", "trap_freq", "frame-r-detuning", "frame-tag", "frame-detuning", "frame-reference-freq"],
    )
    def test_input_checks_raise_input_error(self, make):
        with pytest.raises(InputError) as caught:
            make()
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: flat_index(p, 1 << p.n_ions, 0),
            lambda p: split_index(p, p.dim),
            lambda p: StateVector(np.zeros(3, dtype=complex), p, Frame()),
            lambda p: fidelity(ground_state(p), ground_state(make_params(3))),
        ],
        ids=["flat_index", "split_index", "state-shape", "fidelity-mismatch"],
    )
    def test_caller_bugs_stay_plain_value_errors(self, call):
        with pytest.raises(ValueError) as caught:
            call(make_params(2))
        assert not isinstance(caught.value, InputError)


class TestBasisLayout:
    def test_flat_layout_is_fock_major(self):
        p = make_params(2, nmax=2)
        assert flat_index(p, 0b01, 0) == 1
        assert flat_index(p, 0b00, 1) == 4
        assert flat_index(p, 0b11, 2) == 11

    @given(st.data())
    def test_bijection(self, data):
        n_ions = data.draw(st.integers(1, 8))
        nmax = data.draw(st.integers(1, 6))
        p = make_params(n_ions, nmax=nmax)
        flat = data.draw(st.integers(0, p.dim - 1))
        idx = split_index(p, flat)
        assert flat_index(p, idx.ion_bits, idx.fock_n) == flat

    def test_out_of_range(self):
        p = make_params(2, nmax=2)
        with pytest.raises(ValueError):
            flat_index(p, 4, 0)
        with pytest.raises(ValueError):
            flat_index(p, 0, 3)
        with pytest.raises(ValueError):
            split_index(p, p.dim)


class TestConstructors:
    def test_ground_state(self):
        p = make_params(2, nmax=2)
        g = ground_state(p)
        assert g.amplitude(0, 0) == 1.0
        assert np.count_nonzero(g.amplitudes) == 1
        assert g.norm() == 1.0
        assert g.clock == 0.0

    def test_ground_equals_lowest_dicke(self):
        p = make_params(3)
        assert fidelity(ground_state(p), dicke_extreme(p, "lowest", 0)) == pytest.approx(1.0)

    def test_dicke_highest(self):
        p = make_params(3)
        s = dicke_extreme(p, "highest", 0)
        assert s.amplitude(0b111, 0) == 1.0

    def test_dicke_single_ion_excited_fock(self):
        p = make_params(1)
        s = dicke_extreme(p, "lowest", 1)
        assert s.amplitude(0, 1) == 1.0

    def test_dicke_orthogonal(self):
        for n in (1, 2, 5):
            p = make_params(n)
            assert fidelity(dicke_extreme(p, "lowest", 0), dicke_extreme(p, "highest", 0)) == 0.0

    def test_dicke_rejects_bad_args(self):
        p = make_params(2, nmax=2)
        with pytest.raises(ValueError):
            dicke_extreme(p, "middle", 0)
        with pytest.raises(ValueError):
            dicke_extreme(p, "lowest", 3)

    def test_target_ghz_amplitudes(self):
        p = make_params(2)
        s = target_ghz(p, 0.0)
        assert s.amplitude(0b00, 0) == pytest.approx(1 / math.sqrt(2))
        assert s.amplitude(0b11, 0) == pytest.approx(1 / math.sqrt(2))
        s_pi = target_ghz(p, math.pi)
        assert s_pi.amplitude(0b00, 0) == pytest.approx(1 / math.sqrt(2))
        assert s_pi.amplitude(0b11, 0) == pytest.approx(-1 / math.sqrt(2))

    def test_target_ghz_phase_orthogonality(self):
        # oracle: the overlap is a two-term sum, (1 + e^{i pi}) / 2 = 0
        p = make_params(2)
        a, b = target_ghz(p, 0.0), target_ghz(p, math.pi)
        overlap = (
            np.conj(a.amplitude(0b00, 0)) * b.amplitude(0b00, 0)
            + np.conj(a.amplitude(0b11, 0)) * b.amplitude(0b11, 0)
        )
        assert abs(overlap) ** 2 == pytest.approx(0.0, abs=1e-30)
        assert fidelity(a, b) == pytest.approx(abs(overlap) ** 2, abs=1e-15)

    def test_statevector_shape_validation(self):
        p = make_params(2)
        with pytest.raises(ValueError):
            StateVector(np.zeros(7), p, Frame())


class TestMemoryBudget:
    @pytest.mark.parametrize(
        "make, size",
        [
            (lambda p: ground_state(p).amplitudes, 5 * 2**40 * 16 + 9 * 2**40),  # the sector state fits; its lift and word index do not
        ],
        ids=["ground_state"],
    )
    def test_oversized_state_rejected_before_allocation(self, make, size):
        with pytest.raises(SimulationError, match=f"need {size} B .*physical memory"):
            make(make_params(40))

    def test_check_memory_compares_bytes_with_physical_memory(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: 1600)
        hilbert.check_memory(100)  # 1600 B fit exactly
        with pytest.raises(SimulationError, match="101 amplitudes need 1616 B"):
            hilbert.check_memory(101)

    @pytest.mark.parametrize("n_ions", [2000, 20000, 10**5])
    def test_huge_ion_counts_get_a_message_not_an_overflow(self, n_ions):
        # 5 * 2**N amplitudes of 16 B and a 9 B word index: a float of 2**2000 overflows, and 2**20000 has
        # more digits than str() prints; the ground state itself stores 2N(n_max + 1) amplitudes
        state = ground_state(make_params(n_ions))
        assert state._rows().size == 2 * n_ions * 5
        with pytest.raises(SimulationError, match=rf"at least 2\^{n_ions + 2} amplitudes .*need at least 2\^{n_ions + 6} B, .*physical memory"):
            state.amplitudes  # noqa: B018
        with pytest.raises(SimulationError, match=rf"at least 2\^{n_ions + 2} amplitudes .*physical memory"):
            state.dump_json()

    @pytest.mark.parametrize("n_ions", [70, 1000])
    def test_power_of_two_counts_read_as_a_sentence(self, n_ions):
        # every count is past 2**64, so each is worded "at least 2^k"
        state = ground_state(make_params(n_ions))
        for read, extra in ((lambda: state.amplitudes, "index"), (state.dump_json, "dump")):
            with pytest.raises(SimulationError) as error:
                read()
            assert re.fullmatch(
                rf"at least 2\^{n_ions + 2} amplitudes and at least 2\^\d+ B of {extra} need at least 2\^\d+ B, "
                r"more than the \d+ B \(\S+ GiB\) of physical memory",
                str(error.value),
            )

    @pytest.mark.parametrize("memory_bits", [34, 63, 64, 65, 90])
    @pytest.mark.parametrize("levels, extra", [(1, 0), (5, 0), (13, 0), (5, 7), (5, 2**70)])
    def test_state_check_decides_and_words_as_the_formed_count(self, monkeypatch, memory_bits, levels, extra):
        # levels << N is formed only where it may fit; elsewhere bit lengths give the same verdict and text
        for memory in (2 ** (memory_bits - 1), 2**memory_bits - 1):
            monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: memory)
            for n_ions in sorted({1, 30, 62, 63, 64, 65, 66, 71, 72, 80, memory_bits - 1, memory_bits, memory_bits + 1}):
                outcomes = []
                for call in (
                    lambda: hilbert.check_memory(levels << n_ions, extra),
                    lambda: hilbert.check_memory(levels, extra, n_ions=n_ions),
                ):
                    try:
                        call()
                        outcomes.append(None)
                    except SimulationError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (memory, n_ions)

    def test_state_check_forms_no_state_size(self):
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError, match=rf"{10 * 10**9} amplitudes need {160 * 10**9} B "):  # 2N(n_max + 1) of them
                ground_state(make_params(10**9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestPopcounts:
    @pytest.mark.parametrize("n_ions", range(1, 13))
    def test_table_counts_excited_ions(self, n_ions):
        table = hilbert._popcounts(n_ions)
        assert table.dtype == np.uint8  # 1 B per word; callers form N - 2 popcount in a signed type
        assert table.tolist() == [bin(b).count("1") for b in range(1 << n_ions)]


class TestFidelity:
    def test_self(self):
        rng = np.random.default_rng(1)
        s = random_state(make_params(3), rng)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(2)
        s = random_state(make_params(2), rng)
        t = s.copy()
        t.amplitudes *= np.exp(1j * 0.813)
        assert fidelity(s, t) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        p = make_params(3)
        for _ in range(20):
            a, b = random_state(p, rng), random_state(p, rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-15

    def test_mismatch_errors(self):
        rng = np.random.default_rng(4)
        a = random_state(make_params(2), rng)
        b = random_state(make_params(3), rng)
        with pytest.raises(ValueError):
            fidelity(a, b)
        c = random_state(make_params(2), rng, frame=Frame(FRAME_R_PRIME, detuning=0.1))
        with pytest.raises(ValueError):
            fidelity(a, c)


class TestPopulations:
    def test_ground(self):
        p = make_params(2)
        assert excited_population(ground_state(p), 1) == 0.0
        assert np.allclose(fock_populations(ground_state(p)), [1, 0, 0, 0, 0])

    def test_equal_superposition_single_ion(self):
        p = make_params(1)
        amps = np.zeros(p.dim, dtype=complex)
        amps[flat_index(p, 0, 0)] = 1 / math.sqrt(2)
        amps[flat_index(p, 1, 0)] = 1 / math.sqrt(2)
        s = StateVector(amps, p, Frame())
        assert excited_population(s, 1) == pytest.approx(0.5)

    def test_ghz_half_for_every_ion(self):
        # oracle: only the all-ones branch carries the ion's bit, weight 1/2
        p = make_params(4)
        s = target_ghz(p, 0.7)
        manual = abs(s.amplitude(p.n_configs - 1, 0)) ** 2
        for ion in range(1, 5):
            assert excited_population(s, ion) == pytest.approx(manual) == pytest.approx(0.5)

    def test_index_range(self):
        p = make_params(2)
        with pytest.raises(ValueError):
            excited_population(ground_state(p), 0)
        with pytest.raises(ValueError):
            excited_population(ground_state(p), 3)

    def test_mid_protocol_fock_marginal(self):
        # state |g..g> (|0> + i e^{-i nu t} |1>)/sqrt(2) has marginal [1/2, 1/2, 0, ...]
        p = make_params(2)
        amps = np.zeros(p.dim, dtype=complex)
        amps[flat_index(p, 0, 0)] = 1 / math.sqrt(2)
        amps[flat_index(p, 0, 1)] = 1j * np.exp(-1j * 55.98) / math.sqrt(2)
        s = StateVector(amps, p, Frame())
        assert np.allclose(fock_populations(s), [0.5, 0.5, 0, 0, 0], atol=1e-15)

    def test_marginals_consistent_on_random_states(self):
        rng = np.random.default_rng(5)
        p = make_params(3, nmax=3)
        for _ in range(25):
            s = random_state(p, rng)
            pops = fock_populations(s)
            assert pops.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pops >= 0)
            for ion in range(1, 4):
                assert 0.0 <= excited_population(s, ion) <= 1.0


class TestPopulationKernel:
    def test_matches_plain_numpy_on_batch_axes(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((2, 3, 40)) + 1j * rng.standard_normal((2, 3, 40))
        assert np.allclose(hilbert.populations(rows), (np.abs(rows) ** 2).sum(axis=-1), rtol=1e-15, atol=0)

    def test_nan_amplitude_gives_nan(self):
        rows = np.ones((2, 8), dtype=complex)
        rows[1, 3] = complex(np.nan, 0.0)
        out = hilbert.populations(rows)
        assert out[0] == 8.0 and math.isnan(out[1])

    def test_statevector_on_a_strided_array(self):
        p = make_params(2, nmax=2)
        buffer = np.zeros(2 * p.dim, dtype=complex)
        s = StateVector(buffer[::2], p, Frame())
        assert np.shares_memory(s.amplitudes, buffer)
        s.amplitudes[flat_index(p, 0, 0)] = 0.6
        s.amplitudes[flat_index(p, 3, 1)] = 0.8j
        assert s.norm() == pytest.approx(1.0, abs=1e-15)
        assert fock_populations(s) == pytest.approx([0.36, 0.64, 0.0], abs=1e-15)
        assert excited_population(s, 1) == pytest.approx(0.64, abs=1e-15)
        assert s.to_dump()["amplitudes"] == [[a.real, a.imag] for a in s.amplitudes.tolist()]
        apply_pulse(s, PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=1))
        assert buffer[1::2].tolist() == [0j] * p.dim  # updated in place, between the gaps
        assert s.norm() == pytest.approx(1.0, abs=1e-15)


class TestCopy:
    def test_full_support_state(self):
        assert_exact_copy(random_state(make_params(3, nmax=3), np.random.default_rng(12)))

    def test_nan_on_the_top_level(self):
        p = make_params(2, nmax=3)
        s = ground_state(p)
        s.amplitudes[flat_index(p, 1, 3)] = complex(np.nan, 0.0)
        assert_exact_copy(s)

    def test_amplitude_whose_population_underflows(self):
        # |1e-300|^2 is 0.0, so a window taken from populations would drop the top level
        p = make_params(2, nmax=3)
        s = ground_state(p)
        s.amplitudes[flat_index(p, 3, 3)] = 1e-300
        assert fock_populations(s)[3] == 0.0
        assert_exact_copy(s)

    def test_statevector_on_a_strided_array(self):
        p = make_params(2, nmax=2)
        buffer = np.zeros(2 * p.dim, dtype=complex)
        s = StateVector(buffer[::2], p, Frame(), clock=1.5)
        s.amplitudes[flat_index(p, 0, 0)] = 0.6
        s.amplitudes[flat_index(p, 3, 1)] = 0.8j
        assert_exact_copy(s)


@st.composite
def level_rows(draw):
    """Amplitude rows whose every (row, level) block is all zeros of either sign, or zeros plus one NaN, 1e-300 or normal entry."""
    n_ions, nmax, n_rows = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    p = make_params(n_ions, nmax=nmax)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], size=(n_rows, p.n_levels, p.n_configs, 2))
    levels = np.copysign(0.0, signs).view(np.complex128)[..., 0]
    entries = st.sampled_from([complex(np.nan, 0.0), complex(0.0, np.nan), 1e-300, -1e-300j, 0.6 - 0.8j])
    for row in range(n_rows):
        for level in range(p.n_levels):
            if draw(st.booleans()):
                levels[row, level, draw(st.integers(0, p.n_configs - 1))] = draw(entries)
    return p, levels.reshape(n_rows, p.dim)


class TestFockTop:
    @given(case=level_rows())
    def test_lowers_every_bound_to_the_highest_nonzero_level(self, case):
        p, rows = case
        # reference: every level holding an entry that compares unequal to zero (NaN does, -0.0 does not)
        occupied = np.flatnonzero((rows.reshape(-1, p.n_levels, p.n_configs) != 0).any(axis=(0, 2)))
        window = int(occupied[-1]) if occupied.size else 0
        assert hilbert._fock_top(rows, p) == window
        for top in range(window, p.fock_cutoff + 1):  # from every bound: the populations of levels 0 .. top
            known = hilbert.populations(hilbert.levels_view(rows, p)[..., : top + 1, :])
            assert hilbert._fock_top(rows, p, known=known) == window
        for row in rows:  # a single (dim,) state: its own window
            occupied = np.flatnonzero((row.reshape(p.n_levels, p.n_configs) != 0).any(axis=1))
            assert hilbert._fock_top(row, p) == (int(occupied[-1]) if occupied.size else 0)


#: Float parts for dump tests: both zeros, NaN, both infinities, subnormals, the extreme exponents and ordinary floats.
DUMP_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(),
)


class TestDump:
    @given(pairs=st.lists(st.tuples(DUMP_FLOATS, DUMP_FLOATS), max_size=64))
    def test_encoder_gives_the_bytes_of_json_dumps(self, pairs):
        amplitudes = np.array(pairs, dtype=np.float64).reshape(-1, 2).view(np.complex128)[:, 0]
        want = json.dumps(amplitudes[:, None].view(np.float64).tolist())
        assert hilbert._pairs_json(amplitudes, "", "") == want
        assert hilbert._pairs_json(amplitudes, "{", "}") == "{" + want + "}"

    def test_dump_json_is_json_dumps_of_to_dump(self):
        p = make_params(3, nmax=2)
        whole = StateVector(np.zeros(2 * p.dim, dtype=complex)[::2], p, Frame(FRAME_R_PRIME, 0.25, -2.5), clock=1.5)
        whole.amplitudes[[0, 5, 9]] = [complex(-0.0, 0.6), math.nan, 1e-300 - 0.8j]
        sector = prepare_max_entangled(make_params(5, nmax=3), PulseMode.PHYSICAL).final_state
        assert sector._levels is not None  # dump_json reads its sector coefficients; to_dump then lifts it
        for state in (whole, sector):
            text = state.dump_json()
            assert text == json.dumps(state.to_dump(), check_circular=False)

    def test_sector_dump_is_the_lifted_dump(self):
        # every Dicke share, signed zeros and NaN: the gathered texts are those of the lifted words
        p = make_params(6, nmax=2)
        levels = np.random.default_rng(23).standard_normal((p.n_levels, 4 * p.n_ions)).view(complex)
        levels[0, [1, 2, 3]] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.nan, -0.0)
        levels[1] = complex(-0.0, -0.0)
        sector = StateVector._sector(levels.copy(), p, Frame(FRAME_R_PRIME, 0.25), 1.5)
        text = sector.dump_json()
        assert sector._levels is not None  # no whole array was built
        assert text == StateVector(hilbert._lift(levels, p), p, Frame(FRAME_R_PRIME, 0.25), 1.5).dump_json()

    def test_word_index_holds_a_pseq_cycles_ion_counts(self):
        # a seeded .pseq cycle dumps states at up to seven ion counts: a second pass over them builds no index
        states = [prepare_max_entangled(make_params(n)).final_state for n in range(4, 11)]
        hilbert._word_index.cache_clear()
        for state in states:
            state.dump_json()
        assert hilbert._word_index.cache_info().misses == len(states)
        for state in states:
            assert state._levels is not None  # the dump gathered from the sector, through the index
            state.dump_json()
        assert hilbert._word_index.cache_info().misses == len(states)

    def test_a_dump_sets_off_no_collection(self):
        state = prepare_max_entangled(make_params(10, nmax=6)).final_state
        state.amplitudes  # the whole array is lifted before the count
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        threshold = gc.get_threshold()
        gc.set_threshold(100)
        gc.callbacks.append(count)
        try:
            gc.collect()  # no allocation counted before the dump
            starts.clear()
            state.dump_json()
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
        assert starts == []

    @pytest.mark.parametrize("stored", ["prepared", "sector", "whole"])
    def test_memory_check_counts_the_dump_before_any_allocation(self, monkeypatch, stored):
        p = make_params(12, nmax=2)
        rng = np.random.default_rng(19)
        if stored != "whole":  # the dump gathers these; a dense sector state fills every word
            levels = rng.standard_normal((p.n_levels, 4 * p.n_ions)).view(complex)
            state = prepare_max_entangled(p).final_state if stored == "prepared" else StateVector._sector(levels, p, Frame(), 0.0)
            lift = p.dim * 16 + 9 * p.n_configs  # what the lift alone counts: it fits, the dump does not
        else:
            state = random_state(p, rng)
            state.amplitudes[::3] = 0.0  # one zero pair in three, the rest formatted
            lift = p.dim * 16
        hilbert._word_index.cache_clear()
        hilbert._popcounts.cache_clear()

        def traced_dump(memory):
            monkeypatch.setattr(hilbert, "_physical_memory_bytes", lambda: memory)
            tracemalloc.start()
            try:
                return state.dump_json(), tracemalloc.get_traced_memory()[1]
            except SimulationError as error:
                return str(error), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        message, peak = traced_dump(lift)
        assert re.match(rf"{p.dim} amplitudes and \d+ B of dump need \d+ B", message)
        assert peak <= 64 * 1024  # nothing is allocated or lifted before the check
        assert (state._levels is None) == (stored == "whole")
        needed = int(re.search(r"need (\d+) B", message)[1])
        text, peak = traced_dump(needed)
        assert text == json.dumps(state.to_dump())
        assert peak + len(text) <= needed  # what the dump built, and one copy of its text as a caller makes

    def test_matches_the_per_amplitude_form_with_signed_zeros(self):
        p = make_params(1, nmax=1)
        amplitudes = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-300 - 2.5j])
        s = StateVector(amplitudes, p, Frame())
        per_amplitude = [[float(a.real), float(a.imag)] for a in s.amplitudes]
        assert json.dumps(s.to_dump()["amplitudes"]) == json.dumps(per_amplitude)
        assert json.dumps(s.to_dump()["amplitudes"][0]) == "[-0.0, 0.0]"

    def test_schema_and_order(self):
        p = make_params(2, nmax=1)
        s = target_ghz(p, 0.0)
        data = json.loads(s.dump_json())
        assert set(data) == {"n_ions", "n_max", "frame", "clock", "amplitudes"}
        assert data["n_ions"] == 2 and data["n_max"] == 1
        assert data["frame"] == {"tag": "R", "detuning": 0.0, "reference_freq": None}
        assert data["clock"] == 0.0
        assert len(data["amplitudes"]) == p.dim
        # flat order: entry 0 is (bits=0, n=0), entry 3 is (bits=3, n=0)
        assert data["amplitudes"][0] == pytest.approx([1 / math.sqrt(2), 0.0])
        assert data["amplitudes"][3] == pytest.approx([1 / math.sqrt(2), 0.0])
        assert data["amplitudes"][4] == [0.0, 0.0]
