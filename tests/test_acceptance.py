"""Acceptance criteria for the whole package.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Tolerances are fixed here, not tuned: preparation and
trajectory checks at 1e-12, fringe laws at 1e-10, fringe-compression
ratios at 1e-9 relative, oracle equivalences at 1e-12, and the
motion-conditioned NOT's null space must be preserved bit for bit.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

from ionpulse import (
    Frame,
    FRAME_R_PRIME,
    PulseKind,
    PulseMode,
    PulseSpec,
    RamseyConfig,
    SequenceProgram,
    TrapParams,
    apply_pulse,
    dense_matrix,
    excited_population,
    fidelity,
    fock_populations,
    free_evolve,
    prepare_max_entangled,
    ramsey_run,
    ramsey_scan,
    reversed_sequence,
    verify_trajectory,
)
from ionpulse.seqlang import execute, format_program, parse
from conftest import dicke_extreme, make_params, random_state, target_ghz

WAIT = 1.0e5  # keeps every detuning below the validity threshold


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} [{title}]: PASS ({elapsed:.2f} s)")


def test_1_preparation_exactness():
    with criterion(1, "preparation exactness, N=1..10"):
        start = time.perf_counter()
        for n_ions in range(1, 11):
            report = prepare_max_entangled(make_params(n_ions, nmax=4))
            assert report.fidelity_vs_target >= 1 - 1e-12, (n_ions, report.fidelity_vs_target)
            assert fock_populations(report.final_state)[0] >= 1 - 1e-12
            # the explicit maximization agrees with fidelity against the phased target
            target = target_ghz(make_params(n_ions, nmax=4), report.best_phase)
            assert fidelity(report.final_state, target) >= 1 - 1e-12
        assert time.perf_counter() - start < 1.0


def test_2_trajectory_residuals():
    with criterion(2, "per-step closed-form residuals <= 1e-12, N=1..8"):
        start = time.perf_counter()
        for n_ions in range(1, 9):
            report = prepare_max_entangled(make_params(n_ions))
            check = verify_trajectory(report, tolerance=1e-12)
            assert check.passed, (n_ions, check.residuals)
        assert time.perf_counter() - start < 1.0


def test_3_ramsey_law():
    with criterion(3, "fringe law |P - (1-(-1)^N cos(N dT))/2| <= 1e-10"):
        start = time.perf_counter()
        worst = 0.0
        for n_ions in range(1, 9):
            params = make_params(n_ions)
            grid = tuple(
                x / (n_ions * WAIT) for x in np.linspace(-2 * math.pi, 2 * math.pi, 101)
            )
            result = ramsey_scan(RamseyConfig(params=params, wait_time=WAIT, detuning_grid=grid))
            worst = max(worst, result.max_abs_error)
        assert worst <= 1e-10, worst
        assert time.perf_counter() - start < 5.0


def _first_fringe_turning_point(n_ions):
    """First extremum of the fringe for delta > 0 (the first maximum of
    |P - 1/2|): located by bisecting the sign of a symmetric difference."""
    params = make_params(n_ions)
    config = RamseyConfig(params=params, wait_time=WAIT, detuning_grid=(0.0,))

    def probability(delta):
        return ramsey_run(config, delta)[1]

    scale = n_ions * WAIT
    h = 1e-3 * math.pi / scale
    lo = 0.6 * math.pi / scale
    hi = 1.4 * math.pi / scale

    def slope_sign(delta):
        return probability(delta + h) - probability(delta - h)

    s_lo = slope_sign(lo)
    assert s_lo * slope_sign(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        s_mid = slope_sign(mid)
        if s_mid == 0.0:
            return mid
        if (s_mid > 0) == (s_lo > 0):
            lo, s_lo = mid, s_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_4_fringe_compression():
    with criterion(4, "first fringe extremum scales as 1/N"):
        reference = _first_fringe_turning_point(1)
        for n_ions in (2, 4, 8):
            measured = _first_fringe_turning_point(n_ions)
            expected = reference / n_ions
            assert abs(measured - expected) <= 1e-9 * expected, (n_ions, measured, expected)


ORACLE_SPEC_BUILDERS = [
    lambda n: PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=n),
    lambda n: PulseSpec(PulseKind.JC_PI, target_ion=n, target_n=0),
    lambda n: PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=1, mode=PulseMode.PHYSICAL),
    lambda n: PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=n, target_n=1),
    lambda n: PulseSpec(
        PulseKind.DISPERSIVE_SINGLE_PI, target_ion=1, target_n=2, mode=PulseMode.PHYSICAL
    ),
    lambda n: PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1),
    lambda n: PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, mode=PulseMode.PHYSICAL),
]


def test_5_dense_oracle_equivalence():
    with criterion(5, "dense vs matrix-free <= 1e-12 on 100 random states per kind"):
        rng = np.random.default_rng(2024)
        t0 = 0.35
        for params in (make_params(3, nmax=4, nu=1.1, eta=0.15), make_params(6, nmax=3, nu=0.8, eta=0.2)):
            eye = np.eye(params.dim)
            for build in ORACLE_SPEC_BUILDERS:
                spec = build(params.n_ions)
                matrix = dense_matrix(spec, params, t0=t0)
                assert np.max(np.abs(matrix.conj().T @ matrix - eye)) <= 1e-12
                for _ in range(50):
                    state = random_state(params, rng, clock=t0)
                    expected = matrix @ state.amplitudes
                    apply_pulse(state, spec, check_leakage=False)
                    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_6_conditional_not_null_space():
    with criterion(6, "dispersive pulses leave every n=0 amplitude bit-identical"):
        rng = np.random.default_rng(7)
        params = make_params(3, nmax=3)
        variants = [
            PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=2, target_n=1),
            PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=3, target_n=2, mode=PulseMode.PHYSICAL),
            PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=2),
            PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, mode=PulseMode.PHYSICAL),
        ]
        for i in range(1000):
            state = random_state(params, rng)
            before = state.blocks[0].tobytes()
            apply_pulse(state, variants[i % len(variants)], check_leakage=False)
            assert state.blocks[0].tobytes() == before


def test_7_reversibility():
    with criterion(7, "prepare + T=0 reversal: parity readout and spectator ions"):
        for n_ions in range(1, 9):
            params = make_params(n_ions)
            state = prepare_max_entangled(params).final_state
            free_evolve(state, 0.0)
            reversed_sequence(state)
            p_last = excited_population(state, n_ions)
            if n_ions % 2 == 0:
                assert p_last <= 1e-10, (n_ions, p_last)
            else:
                assert p_last >= 1 - 1e-10, (n_ions, p_last)
            for ion in range(1, n_ions):
                assert 1.0 - excited_population(state, ion) >= 1 - 1e-10


def test_8_leakage_honesty():
    with criterion(8, "physical sideband residual on |g,2> = cos(pi sqrt2 / 2)"):
        # nu * 2 * duration = 4 pi, so the free phase is unity and the
        # residual amplitude is the bare rotation matrix element
        params = TrapParams(n_ions=1, trap_freq=2.0, lamb_dicke=1.0, base_rabi=1.0, fock_cutoff=4)
        state = dicke_extreme(params, "lowest", 2)
        apply_pulse(state, PulseSpec(PulseKind.JC_PI, target_ion=1, target_n=0, mode=PulseMode.PHYSICAL))
        residual = state.amplitude(0, 2)
        closed_form = math.cos(math.pi * math.sqrt(2.0) / 2.0)
        assert abs(residual - closed_form) <= 1e-12, residual
        # independent 2x2 exponentiation oracle for the full pair block
        theta = math.pi * math.sqrt(2.0)
        duration = math.pi
        coupling = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair_unitary = np.diag(
            [np.exp(-1j * 2.0 * 2 * duration), np.exp(-1j * 2.0 * 1 * duration)]
        ) @ expm(1j * (theta / 2.0) * coupling)
        oracle = pair_unitary @ np.array([1.0, 0.0])
        assert abs(residual - oracle[0]) <= 1e-12
        assert abs(state.amplitude(1, 1) - oracle[1]) <= 1e-12


def _random_program(rng):
    n_ions = int(rng.integers(1, 6))
    nmax = int(rng.integers(2, 7))
    params = TrapParams(
        n_ions=n_ions,
        trap_freq=float(10.0 ** rng.uniform(-2, 2)),
        lamb_dicke=float(rng.uniform(0.01, 0.95)),
        base_rabi=float(10.0 ** rng.uniform(-2, 2)),
        fock_cutoff=nmax,
    )
    if rng.integers(0, 2):
        frame = Frame()
    else:
        frame = Frame(FRAME_R_PRIME, detuning=float(rng.normal() * 1e-3))
    steps = []
    for _ in range(int(rng.integers(0, 10))):
        kind = rng.integers(0, 5)
        ion = int(rng.integers(1, n_ions + 1))
        mode = PulseMode.PHYSICAL if rng.integers(0, 2) else PulseMode.IDEAL
        if kind == 0:
            phase = float(rng.normal()) if rng.integers(0, 2) else 0.0
            steps.append(PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=ion, laser_phase=phase))
        elif kind == 1:
            steps.append(
                PulseSpec(PulseKind.JC_PI, target_ion=ion, target_n=int(rng.integers(0, nmax)), mode=mode)
            )
        elif kind == 2:
            steps.append(
                PulseSpec(
                    PulseKind.DISPERSIVE_SINGLE_PI,
                    target_ion=ion,
                    target_n=int(rng.integers(1, nmax + 1)),
                    mode=mode,
                )
            )
        elif kind == 3:
            steps.append(
                PulseSpec(
                    PulseKind.DISPERSIVE_COLLECTIVE_PI,
                    target_n=int(rng.integers(1, nmax + 1)),
                    mode=mode,
                )
            )
        else:
            steps.append(PulseSpec(PulseKind.WAIT, duration=float(abs(rng.normal()) * 10)))
    return SequenceProgram(params, frame, steps, [])


def test_9_dsl_round_trip_and_equivalence():
    with criterion(9, "parse/format identity on 500 programs; canonical == builtin"):
        rng = np.random.default_rng(99)
        for _ in range(500):
            program = _random_program(rng)
            text = format_program(program)
            reparsed, diagnostics = parse(text)
            assert not [d for d in diagnostics if d.severity == "error"], text
            assert reparsed == program, text
        source = (
            "ions N=3\n"
            "carrier_pi2 ion=3\n"
            "jc_pi ion=3 n=0\n"
            "disp_pi all n=1\n"
            "disp_pi ion=3 n=1\n"
            "jc_pi ion=3 n=0\n"
        )
        program, _ = parse(source)
        final, _ = execute(program)
        report = prepare_max_entangled(program.params)
        assert np.max(np.abs(final.amplitudes - report.final_state.amplitudes)) <= 1e-12
