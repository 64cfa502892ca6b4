import math
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from ionpulse import Frame, StateVector, TrapParams, flat_index, pulses

# Property tests draw the same examples on every run: a derandomized search
# with no example database, and no per-example deadline (timings on a
# shared machine are not part of any property).
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def params3():
    return TrapParams(n_ions=3, trap_freq=1.0, lamb_dicke=0.1, base_rabi=1.0, fock_cutoff=4)


def make_params(n_ions, nmax=4, nu=1.0, eta=0.1, rabi=1.0):
    return TrapParams(n_ions=n_ions, trap_freq=nu, lamb_dicke=eta, base_rabi=rabi, fock_cutoff=nmax)


class BasisIndex(NamedTuple):
    """One joint basis state: electronic bit word plus Fock level."""

    ion_bits: int
    fock_n: int


def split_index(params, flat):
    """Inverse of ``flat_index``."""
    if not 0 <= flat < params.dim:
        raise ValueError(f"flat index {flat} out of range [0, {params.dim})")
    return BasisIndex(ion_bits=flat % params.n_configs, fock_n=flat // params.n_configs)


def dicke_extreme(params, which, fock_n=0, frame=None):
    """Extremal collective state |J,-J> ("lowest") or |J,J> ("highest"), as a whole array, at Fock level ``fock_n``.

    The only two Dicke states the protocol visits: all ions in |g> or all ions in |e>.
    """
    if which not in ("lowest", "highest"):
        raise ValueError(f"which must be 'lowest' or 'highest', got {which!r}")
    amplitudes = np.zeros(params.dim, dtype=np.complex128)
    amplitudes[flat_index(params, 0 if which == "lowest" else params.n_configs - 1, fock_n)] = 1.0
    return StateVector(amplitudes, params, frame if frame is not None else Frame(), clock=0.0)


def target_ghz(params, phi=0.0, frame=None):
    """Maximally entangled target (|g..g> + e^{i phi}|e..e>)/sqrt(2) with motion in |0>, as a whole array."""
    amplitudes = np.zeros(params.dim, dtype=np.complex128)
    amplitudes[flat_index(params, 0, 0)] = 1.0 / math.sqrt(2.0)
    amplitudes[flat_index(params, params.n_configs - 1, 0)] = np.exp(1j * phi) / math.sqrt(2.0)
    return StateVector(amplitudes, params, frame if frame is not None else Frame(), clock=0.0)


def random_state(params, rng, frame=None, clock=0.0):
    vec = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
    vec /= np.linalg.norm(vec)
    return StateVector(vec, params, frame if frame is not None else Frame(), clock=clock)


def assert_exact_copy(state):
    """``state.copy()`` equals a full ``ndarray.copy`` byte for byte and shares no memory with ``state``."""
    copied = state.copy()
    assert copied.amplitudes.tobytes() == state.amplitudes.copy().tobytes()
    assert not np.shares_memory(copied.amplitudes, state.amplitudes)
    assert (copied.params, copied.frame, copied.clock) == (state.params, state.frame, state.clock)
    return copied


def planned_step(rows, params, spec, t0, detuning=0.0, check_leakage=True, top=None):
    """One step on amplitude rows as a runner takes it: ``pulses._plan``, which checks it before any write, then ``pulses._step_rows``.

    Returns the step's duration and populations; ``top`` is found from the rows when None.
    """
    [(_, duration)] = pulses._plan(params, [spec], t0, float(np.abs(detuning).max(initial=0.0)))
    top = pulses._fock_top(rows, params) if top is None else top
    return duration, pulses._step_rows(rows, params, spec, t0, detuning, duration, top, check_leakage)


def count_calls(fn, run):
    """How many times ``run()`` calls the function ``fn``, by whatever name a module imported it."""
    calls = 0

    def profile(frame, event, _):
        nonlocal calls
        calls += event == "call" and frame.f_code is fn.__code__

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls
