import sys

import numpy as np
import pytest
from hypothesis import settings

from ionpulse import Frame, StateVector, TrapParams

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
