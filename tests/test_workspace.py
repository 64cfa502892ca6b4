"""Step snapshots, concurrent runs and the popcount caches.

A preparation's step snapshots store sector coefficients, and the readers
that need only a few numbers (the trajectory check, ``amplitude``, the
norm) read them without building the whole array.  ``tracemalloc`` sees
NumPy's array buffers, so the peak it reports over a call bounds what
that call allocated.
"""

import cmath
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ionpulse import (
    PulseMode,
    RamseyConfig,
    fock_populations,
    ground_state,
    prepare_max_entangled,
    ramsey_scan,
    verify_trajectory,
)
from ionpulse import pulses
from ionpulse.hilbert import _fock_top, _popcounts, flat_index
from conftest import make_params, random_state

AMPLITUDE_BYTES = 16  # complex128


def allocated(fn):
    """Peak bytes allocated while ``fn()`` runs, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestWindowSnapshots:
    params = make_params(12, nmax=4)

    def test_verify_trajectory_reads_the_stored_levels(self):
        report = prepare_max_entangled(self.params, PulseMode.PHYSICAL)
        check = []
        assert allocated(lambda: check.append(verify_trajectory(report))) < self.params.dim * AMPLITUDE_BYTES / 8
        assert check[0].passed

    def test_a_write_through_blocks_is_seen_by_every_reader(self):
        p = self.params
        report = prepare_max_entangled(p)
        clean = verify_trajectory(report).residuals
        snapshot = report.step_states[2]
        snapshot.blocks[1:] *= np.exp(0.01j)  # phase on the |e..e>|1> branch
        snapshot.blocks[2, 5] = 0.6  # above the Fock window
        residuals = verify_trajectory(report).residuals
        assert residuals[2] > 1e-6 and residuals[:2] + residuals[3:] == clean[:2] + clean[3:]
        assert snapshot.norm() == pytest.approx(math.sqrt(1.36), abs=1e-15)
        assert fock_populations(snapshot)[2] == pytest.approx(0.36, abs=1e-16)
        assert snapshot.to_dump()["amplitudes"][flat_index(p, 5, 2)] == [0.6, 0.0]
        assert snapshot.amplitude(5, 2) == 0.6

    def test_amplitude_of_an_unread_snapshot(self):
        p = make_params(5, nmax=3)
        snapshot = prepare_max_entangled(p, PulseMode.PHYSICAL).step_states[1]  # window: levels 0 and 1
        reads = [snapshot.amplitude(bits, n) for n in range(p.n_levels) for bits in range(p.n_configs)]
        assert snapshot._levels is not None  # the reads built no whole array
        assert np.array(reads).tobytes() == snapshot.amplitudes.tobytes()
        assert snapshot.copy().amplitudes.tobytes() == snapshot.amplitudes.tobytes()


class TestThreads:
    def test_concurrent_runs_equal_serial_runs(self):
        # more threads than cores, switching often, so kernels on different threads interleave
        prep_params = make_params(10, nmax=4)
        config = RamseyConfig(make_params(6, nmax=3), 1e5, tuple(np.linspace(-1e-6, 1e-6, 25)), PulseMode.PHYSICAL)

        def prepare():
            report = prepare_max_entangled(prep_params, PulseMode.PHYSICAL)
            return [s.amplitudes.tobytes() for s in [*report.step_states, report.final_state]]

        def scan():
            return [(s.delta, s.p_simulated) for s in ramsey_scan(config).samples]

        jobs = [prepare, scan] * 2
        serial = [job() for job in jobs]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def worker(index):
            start.wait()
            for _ in range(5):
                results[index].append(jobs[index]())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[want] * 5 for want in serial]


class TestPopcountCaches:
    @pytest.mark.parametrize("phase", [0.7, -2.3])
    @pytest.mark.parametrize("n_ions", [1, 3, 8])
    def test_collective_flip_matches_the_direct_formula(self, n_ions, phase):
        want = [
            (-1) ** bin(b).count("1") * cmath.exp(1j * phase * (n_ions - 2 * bin(b).count("1")))
            for b in range(1 << n_ions)
        ]
        assert np.allclose(pulses._collective_flip(n_ions, phase), want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n_ions", [1, 3, 8])
    def test_sign_at_phase_zero_is_one_byte(self, n_ions):
        sign = pulses._collective_flip(n_ions, 0.0)
        assert sign.dtype == np.int8
        assert sign.tolist() == [(-1) ** bin(b).count("1") for b in range(1 << n_ions)]

    @pytest.mark.parametrize("n_ions", [1, 3, 8])
    def test_detuning_phase_equals_the_per_word_formula(self, n_ions):
        # the window is every level here, so every amplitude gets its phase
        p = make_params(n_ions, nmax=2)
        rows = np.stack([random_state(p, np.random.default_rng(b)).amplitudes for b in range(3)])
        deltas = np.array([0.3, -1.7e-3, 2.5])
        phase = np.exp(-1j * deltas[:, None] * 4.5 * _popcounts(n_ions).astype(np.int64))
        want = (rows.reshape(3, p.n_levels, p.n_configs) * phase[:, None, :]).reshape(rows.shape)
        pulses._detuning_phase(rows, p, deltas, 4.5, _fock_top(rows, p))
        assert rows.tobytes() == want.tobytes()

    def test_detuning_phase_leaves_the_levels_above_the_window(self):
        p = make_params(3, nmax=3)
        state = ground_state(p)
        state.amplitudes[flat_index(p, 7, 1)] = 1.0
        above = np.full(2 * p.n_configs, complex(-0.0, -0.0))
        state.blocks[2:] = above.reshape(2, -1)
        pulses._detuning_phase(state.amplitudes, p, 0.4, 3.0, 1)
        assert state.blocks[2:].tobytes() == above.tobytes()
        assert state.amplitude(7, 1) == pytest.approx(cmath.exp(-1j * 0.4 * 3.0 * 3), abs=1e-15)
