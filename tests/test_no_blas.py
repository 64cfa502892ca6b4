"""Every population and every pulse kernel runs without BLAS.

BLAS-backed calls (``np.vecdot``, ``np.linalg.norm``, ``np.dot``,
``np.vdot``, ``np.matmul``) wake idle OpenBLAS threads, which costs
milliseconds per call on a multi-core host.  Here they raise, and the
preparation with its trajectory check (in the sector basis and its final
lift from N=3), a ``.pseq`` run, a small scan, the readouts, ``fidelity``
and a non-pi collective pulse must not notice.
"""

import numpy as np
import pytest

from ionpulse import (
    Frame,
    PulseKind,
    PulseMode,
    PulseSpec,
    RamseyConfig,
    StateVector,
    apply_pulse,
    dense_matrix,
    fidelity,
    fock_populations,
    prepare_max_entangled,
    ramsey_scan,
    verify_trajectory,
)
from ionpulse import seqlang
from ionpulse.hilbert import populations
from conftest import make_params, target_ghz

CANONICAL_3 = """\
ions N=3
carrier_pi2 ion=3
jc_pi ion=3 n=0
disp_pi all n=1
disp_pi ion=3 n=1
jc_pi ion=3 n=0
"""


@pytest.fixture
def no_blas(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS-backed call made")

    for owner, name in ((np, "vecdot"), (np.linalg, "norm"), (np, "dot"), (np, "vdot"), (np, "matmul")):
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("mode", list(PulseMode), ids=lambda m: m.value)
def test_preparation_and_readouts(no_blas, mode):
    report = prepare_max_entangled(make_params(4), mode)
    assert report.fidelity_vs_target >= 1.0 - 1e-12
    assert abs(report.final_state.norm() - 1.0) <= 1e-12
    assert fock_populations(report.final_state)[0] >= 1.0 - 1e-12
    assert verify_trajectory(report).passed
    assert fidelity(report.final_state, target_ghz(report.final_state.params, report.best_phase)) >= 1.0 - 1e-12


@pytest.mark.parametrize("mode", list(PulseMode), ids=lambda m: m.value)
def test_sector_preparation_and_trajectory_check(no_blas, mode):
    report = prepare_max_entangled(make_params(9), mode)
    check = verify_trajectory(report)
    assert check.passed and max(check.residuals) <= 1e-12
    assert report.fidelity_vs_target >= 1.0 - 1e-12
    assert [fock_populations(s)[0] for s in report.step_states] == pytest.approx([1.0, 0.5, 0.5, 0.5, 1.0], abs=1e-12)


def test_pseq_execute(no_blas):
    program, _ = seqlang.parse(CANONICAL_3)
    final, trace = seqlang.execute(program)
    assert len(trace) == 5 and abs(trace[-1].norm - 1.0) <= 1e-12
    assert fock_populations(final)[0] >= 1.0 - 1e-12


@pytest.mark.parametrize("mode", list(PulseMode), ids=lambda m: m.value)
def test_small_scan(no_blas, mode):
    config = RamseyConfig(params=make_params(3), wait_time=100.0, detuning_grid=(0.0, 1e-5, 2e-5), mode=mode)
    assert ramsey_scan(config).max_abs_error <= 1e-12


def test_non_pi_collective_pulse(no_blas):
    # physical n=2 turns levels 1, 2, 3 by pi/2, pi, 3pi/2: not all pi, so the per-ion rotations run
    params = make_params(9, nmax=3)
    spec = PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=2, mode=PulseMode.PHYSICAL, laser_phase=0.37)
    rng = np.random.default_rng(9)
    vec = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
    vec /= np.sqrt(populations(vec))
    state = StateVector(vec.copy(), params, Frame())
    apply_pulse(state, spec, check_leakage=False)
    # the oracle's `@` is the operator, which does not look up the patched np.matmul
    assert np.max(np.abs(state.amplitudes - dense_matrix(spec, params) @ vec)) <= 1e-12
