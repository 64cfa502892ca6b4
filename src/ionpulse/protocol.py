"""The two built-in procedures: entangled-state preparation and Ramsey scans.

Preparation runs five back-to-back pulses on the motional ground state
with all ions in |g>:

    1. carrier pi/2 on ion N
    2. red-sideband pi (n = 0) on ion N
    3. collective dispersive pi (n = 1)
    4. dispersive pi (n = 1) on ion N
    5. red-sideband pi (n = 0) on ion N

which leaves (|g..g> + |e..e>)/sqrt(2) with the motion back in |0>.  The
intermediate states have closed forms (including their phase factors),
and :func:`verify_trajectory` checks the simulated trajectory against
them step by step.

The Ramsey scheme runs the same five pulses in a frame detuned by Delta,
waits for a time T, applies the sequence again in reverse order, and
reads out ion N.  The excited-state probability follows

    P = (1 - (-1)^N cos(N Delta T)) / 2,

an N-fold compression of the ordinary Ramsey fringe.  Pulses are applied
unchanged in the detuned frame (valid for |Delta| much smaller than every
Rabi frequency; a warning fires otherwise), while Delta enters through
the free evolution.  The optional ``detuning_during_pulses`` diagnostic
additionally accumulates detuning phase over each pulse's duration to
quantify that approximation instead of leaving it silent.

Because Delta only enters through diagonal phases, a scan carries its
detuning grid as a batch axis: grid points are rows of one amplitude
array.  The scheme is one step list (preparation, wait, reversed
preparation), and each step is applied to all rows in one call with each
row's own Delta.  The preparation runs once and is copied into every row
(per row only with ``detuning_during_pulses``).  Rows run in chunks
whose array stays within ``SCAN_CHUNK_BYTES``, so memory does not grow
with the grid; every step is planned once per scan, before any row runs.
:func:`ramsey_run` is the one-point case.

Every runner plans its steps with :func:`ionpulse.pulses._plan`: the
preparation and the scan their whole step list before they allocate,
:func:`_run_steps` each step of a ``.pseq`` program or a reversed
sequence as it reaches it.  The preparation stores its start state and
one copy per step, 2N(n_max + 1) sector amplitudes each, and checks that
memory alone, so it runs at every N whose sector fits; a reader that
builds a whole array checks its own (:func:`ionpulse.hilbert._lift`).
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    FRAME_R,
    FRAME_R_PRIME,
    Frame,
    InputError,
    StateVector,
    TrapParams,
    check_memory,
    excited_population,
    excited_population_rows,
    flat_index,
    ground_state,
    _fock_top,
    _require_finite,
)

# free_evolve is not called here any more, but stays a module attribute:
# profiling tools wrap this module's pulse layer by name.
from .pulses import (
    PulseKind,
    PulseMode,
    PulseSpec,
    apply_pulse,
    free_evolve,  # noqa: F401
    pulse_duration,
    _check_detuning_phase,
    _detuning_phase,
    _plan,
    _rabi_rate,
    _step_rows,
)

__all__ = [
    "PreparationReport",
    "RamseyConfig",
    "RamseySample",
    "RamseyResult",
    "TrajectoryCheck",
    "preparation_sequence",
    "prepare_max_entangled",
    "best_ghz_fidelity",
    "trajectory_reference",
    "verify_trajectory",
    "reversed_sequence",
    "ramsey_probability",
    "ramsey_run",
    "ramsey_scan",
    "result_to_csv",
    "result_to_json_dict",
]

#: Detuning is considered small enough for frame-invariant pulses when
#: |Delta| <= VALIDITY_RATIO * min(all Rabi frequencies in the sequence).
VALIDITY_RATIO = 0.01

#: Byte budget of the amplitude array one chunk of scan rows occupies;
#: fixes how many grid points share each pulse application (12 at N=8, 3
#: at N=10, one from N=11 up).  A constant, not an option: batching a whole
#: grid would raise peak memory with the grid size, and the kernels'
#: temporaries scale with the chunk.
SCAN_CHUNK_BYTES = 256 * 1024


def preparation_sequence(params: TrapParams, mode: PulseMode | str = PulseMode.IDEAL) -> list[PulseSpec]:
    """The five-pulse program that builds the entangled state."""
    return list(_preparation_specs(params.n_ions, PulseMode(mode)))


@functools.lru_cache(maxsize=64)
def _preparation_specs(last: int, mode: PulseMode) -> tuple[PulseSpec, ...]:
    """The five frozen specs of :func:`preparation_sequence` for N = ``last``, built once per (N, mode)."""
    return (
        PulseSpec(PulseKind.CARRIER_PI_HALF, target_ion=last, mode=mode),
        PulseSpec(PulseKind.JC_PI, target_ion=last, target_n=0, mode=mode),
        PulseSpec(PulseKind.DISPERSIVE_COLLECTIVE_PI, target_n=1, mode=mode),
        PulseSpec(PulseKind.DISPERSIVE_SINGLE_PI, target_ion=last, target_n=1, mode=mode),
        PulseSpec(PulseKind.JC_PI, target_ion=last, target_n=0, mode=mode),
    )


def _preparation(params: TrapParams, mode: PulseMode | str) -> tuple[PulseSpec, ...]:
    """The preparation's specs, after the check it shares with the scan: its sideband fills n = 1, so n_max >= 2."""
    if params.fock_cutoff < 2:
        raise InputError(f"the preparation fills Fock level 1, so it needs n_max >= 2, got n_max={params.fock_cutoff}")
    return _preparation_specs(params.n_ions, PulseMode(mode))


def _run_steps(state: StateVector, specs, top: int, plan=None):
    """The one loop of a step list on a state: apply ``specs`` from Fock window ``top``, yielding each step's populations.

    ``plan`` is :func:`_plan` of ``specs`` from the state's clock and
    frame, taken here when None: a list, or the generator itself, which
    plans each step as it is reached, so a step that cannot run raises
    after the steps before it ran.  Each next window comes from the
    populations and the rows the kernels acted on, so a sector-stored
    state stays in the sector until a step needs its whole array.  A step
    that writes no amplitude hands back the last populations unread, and
    the window stays.
    """
    levels = None
    if plan is None:
        plan = _plan(state.params, specs, state.clock, abs(state.frame.detuning))
    for spec, (_, duration) in zip(specs, plan):
        _, new = apply_pulse(state, spec, top=top, duration=duration, known=levels)
        if new is not levels:
            top = _fock_top(state._rows(), state.params, known=new)
        levels = new
        yield levels


@dataclass
class PreparationReport:
    """Everything the preparation run produced.

    ``fidelity_vs_target`` is maximized over the relative phase of the
    two target branches; ``best_phase`` is the maximizing phase.
    ``phi_schroedinger`` = N * omega0 * t5 is the lab-frame relative
    phase of the prepared state, reported only when omega0 is supplied.
    """

    final_state: StateVector
    fidelity_vs_target: float
    best_phase: float
    step_states: list[StateVector]
    pulse_times: list[float]
    phi_schroedinger: float | None = None


def best_ghz_fidelity(state: StateVector) -> tuple[float, float]:
    """Fidelity against (|g..g> + e^{i phi}|e..e>)|0>/sqrt(2), maximized over phi, from two stored amplitudes."""
    p = state.params
    c_low = state._amplitude_at(flat_index(p, 0, 0))
    c_high = state._amplitude_at(flat_index(p, p.n_configs - 1, 0))
    fid = 0.5 * (abs(c_low) + abs(c_high)) ** 2
    phase = 0.0
    if abs(c_low) > 0 and abs(c_high) > 0:
        high, low = np.arctan2((c_high.imag, c_low.imag), (c_high.real, c_low.real))  # np.angle of each, in one call
        phase = float(high - low)
    return fid, phase


def prepare_max_entangled(
    params: TrapParams,
    mode: PulseMode | str = PulseMode.IDEAL,
    frame: Frame | None = None,
    omega0: float | None = None,
) -> PreparationReport:
    """Run the five-pulse preparation from the ground state.

    In ideal mode the final state equals the target up to a global phase
    and the motion factors out into |0> exactly (to numerical precision).
    An n_max below 2, or an ``omega0`` that makes ``phi_schroedinger``
    non-finite, raises :class:`InputError`, and a step that cannot run
    :class:`PulseError`, before any allocation.  The pulses run in the
    sector basis (see :mod:`ionpulse.hilbert`), and the report hands back
    the states they ran: each step state and the final state store
    2N(n_max + 1) amplitudes until a reader of ``amplitudes`` builds the
    whole array.  Memory is checked for what the run stores, the start
    state and one copy per step, before the first pulse.
    """
    specs = _preparation(params, mode)
    phi = None
    if omega0 is not None:
        _require_finite("omega0", omega0)
    # after _preparation's check the specs pass validate_pulse_spec but for a Rabi rate of 0, which pulse_duration raises
    durations = [pulse_duration(spec, params) for spec in specs]
    detuning = 0.0 if frame is None else abs(frame.detuning)
    plan = list(_plan(params, specs, 0.0, detuning, durations))  # an eager list, from the ground state's clock
    if omega0 is not None:
        t5 = plan[-1][0] + plan[-1][1]  # the clock after the last pulse
        phi = params.n_ions * omega0 * t5
        if not math.isfinite(phi):
            raise InputError(
                f"omega0 must keep the lab-frame phase N*omega0*t5 finite, got omega0={omega0!r} "
                f"with N={params.n_ions} and t5={t5!r}"
            )
    state = ground_state(params, frame)
    check_memory((len(plan) + 1) * state._rows().size)  # the start state, which becomes the final one, and a copy per step
    step_states = [state.copy() for _ in _run_steps(state, specs, 0, plan)]  # the ground state's window is level 0
    pulse_times = [s.clock for s in step_states]
    fid, phase = best_ghz_fidelity(state)
    return PreparationReport(
        final_state=state,
        fidelity_vs_target=fid,
        best_phase=phase,
        step_states=step_states,
        pulse_times=pulse_times,
        phi_schroedinger=phi,
    )


def _reference_tables(params: TrapParams, pulse_times: list[float]) -> list[dict[int, complex]]:
    """The two nonzero amplitudes of each closed-form step state, as {flat index: Python float or complex}.

    See :func:`trajectory_reference` for the five states.
    """
    nu = params.trap_freq
    nc = params.n_configs
    last_bit = 1 << (params.n_ions - 1)
    t1, t2, t3, t4, t5 = pulse_times
    amp = 1.0 / math.sqrt(2.0)
    at = functools.partial(flat_index, params)
    return [
        {at(0, 0): amp, at(last_bit, 0): amp},
        {at(0, 0): amp, at(0, 1): amp * 1j * cmath.exp(-1j * nu * t2)},
        {at(0, 0): amp, at(nc - 1, 1): amp * 1j * cmath.exp(-1j * nu * t3)},
        {at(0, 0): amp, at(nc - 1 - last_bit, 1): amp * -1j * cmath.exp(-1j * nu * t4)},
        {at(0, 0): amp, at(nc - 1, 0): amp},
    ]


def trajectory_reference(
    params: TrapParams,
    pulse_times: list[float],
    frame: Frame | None = None,
) -> list[StateVector]:
    """Closed-form states after each preparation pulse, phases included.

    With t1..t5 the pulse end times and nu the trap frequency:

        1: (|g..g,g> + |g..g,e>)|0> / sqrt(2)
        2: |g..g> (|0> + i e^{-i nu t2} |1>) / sqrt(2)
        3: (|g..g>|0> + i e^{-i nu t3} |e..e>|1>) / sqrt(2)
        4: (|g..g,g>|0> - i e^{-i nu t4} |e..e,g>|1>) / sqrt(2)
        5: (|g..g> + |e..e>)|0> / sqrt(2)
    """
    frame = frame if frame is not None else Frame(FRAME_R)
    check_memory(len(pulse_times) * params.n_levels, n_ions=params.n_ions)
    states = []
    for clock, table in zip(pulse_times, _reference_tables(params, pulse_times)):
        amplitudes = np.zeros(params.dim, dtype=np.complex128)
        amplitudes[list(table)] = list(table.values())
        states.append(StateVector(amplitudes, params, frame, clock=clock))
    return states


@dataclass
class TrajectoryCheck:
    """Per-step residuals 1 - |<simulated|reference>|^2 of a preparation run."""

    residuals: list[float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.residuals) <= self.tolerance


def verify_trajectory(report: PreparationReport, tolerance: float = 1e-12) -> TrajectoryCheck:
    """Compare each step state of a report against its closed form.

    The references carry the exact phase factors, so a wrong relative
    phase between branches shows up as a nonzero residual.  Each
    reference is exactly zero outside its two nonzero entries, so the
    overlap is taken over those entries only, read from each snapshot's
    stored coefficients, without building the dense references or the
    snapshots' whole arrays.  For any finite step state that is the same
    quantity as the full inner product with :func:`trajectory_reference`'s states;
    amplitude moved off the support shows as the norm missing on it.  The
    overlap is summed in Python floats, term by term as a complex product
    conj(a) * value forms it.
    """
    params = report.final_state.params
    residuals = []
    for sim, table in zip(report.step_states, _reference_tables(params, report.pulse_times)):
        real = imag = 0.0
        for index, value in table.items():
            a = sim._amplitude_at(index)
            real += a.real * value.real + a.imag * value.imag
            imag += a.real * value.imag - a.imag * value.real
        residuals.append(1.0 - abs(complex(real, imag)) ** 2)
    return TrajectoryCheck(residuals=residuals, tolerance=tolerance)


def reversed_sequence(state: StateVector, mode: PulseMode | str = PulseMode.IDEAL) -> StateVector:
    """Apply the five preparation pulses in reverse order at the current clock."""
    specs = list(reversed(preparation_sequence(state.params, mode)))
    for _ in _run_steps(state, specs, _fock_top(state._rows(), state.params)):
        pass
    return state


@dataclass(frozen=True)
class RamseyConfig:
    """One Ramsey scan: a detuning grid at fixed wait time.

    ``detuning_during_pulses`` switches on the diagnostic that also
    accumulates detuning phase while pulses run, quantifying the error of
    treating the pulses as frame-invariant.
    """

    params: TrapParams
    wait_time: float
    detuning_grid: tuple[float, ...]
    mode: PulseMode = PulseMode.IDEAL
    detuning_during_pulses: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.wait_time < math.inf:
            raise InputError(f"wait_time must be finite and >= 0, got {self.wait_time!r}")
        for index, delta in enumerate(self.detuning_grid):
            _require_finite(f"detuning_grid[{index}]", delta)


@dataclass(frozen=True)
class RamseySample:
    delta: float
    wait_time: float
    p_simulated: float
    p_analytic: float


@dataclass
class RamseyResult:
    samples: list[RamseySample] = field(default_factory=list)
    max_abs_error: float = 0.0


def ramsey_probability(n_ions: int, delta: float, wait_time: float) -> float:
    """Closed-form excited-state probability of the last ion after the scheme."""
    return 0.5 * (1.0 - (-1.0) ** n_ions * math.cos(n_ions * delta * wait_time))


def _check_validity(params: TrapParams, deltas: np.ndarray, prep: tuple[PulseSpec, ...]) -> None:
    """One warning for all detunings that break the frame-invariant approximation of the preparation ``prep``."""
    smallest = min(_rabi_rate(spec.kind, params, spec.target_n) for spec in prep)
    magnitudes = np.abs(deltas)
    invalid = int(np.count_nonzero(magnitudes > VALIDITY_RATIO * smallest))
    if invalid:
        warnings.warn(
            f"{invalid} of {deltas.size} detunings (largest |detuning| {magnitudes.max():.3e}) are not "
            f"small against the slowest Rabi frequency {smallest:.3e}; frame-invariant pulse "
            "transformations are inaccurate there",
            UserWarning,
            stacklevel=4,  # through _ramsey_rows to the caller of ramsey_run or ramsey_scan
        )


def _run_rows(
    rows: np.ndarray,
    params: TrapParams,
    specs: list[PulseSpec],
    plan: list[tuple[float, float]],
    top: int,
    detunings: float | np.ndarray = 0.0,
    during_pulses: bool = False,
) -> int:
    """Apply ``specs`` at their planned (start clock, duration) to every row from Fock window ``top``; return the window after them.

    ``detunings`` (one per row, or one for all) reach every step; only a
    wait reads them.  With ``during_pulses`` every other step is followed
    by the detuning phase accumulated over its duration: the
    ``detuning_during_pulses`` diagnostic.
    """
    kick = during_pulses and np.count_nonzero(detunings)
    for spec, (clock, duration) in zip(specs, plan):
        levels = _step_rows(rows, params, spec, clock, detunings, duration, top)
        top = _fock_top(rows, params, known=levels)  # a phase maps zeros to zeros: the same window after it
        if kick and duration and spec.kind is not PulseKind.WAIT:  # a zero duration or detuning forms no phase
            _detuning_phase(rows, params, detunings, duration, top)
    return top


def _chunk_rows(params: TrapParams) -> int:
    """Grid points per scan chunk: as many rows as fit in SCAN_CHUNK_BYTES, at least one."""
    return max(1, SCAN_CHUNK_BYTES // (params.dim * np.dtype(np.complex128).itemsize))


def _ramsey_rows(config: RamseyConfig, deltas: np.ndarray, read) -> list:
    """``read(rows, clock)`` of the Ramsey scheme's final rows, one call per chunk of ``deltas``.

    Every step is planned once, by :func:`_plan` with the grid's largest
    |Delta|, which bounds every chunk's, and runs through :func:`_run_rows`
    at its planned clock; the ``detuning_during_pulses`` phases are
    bounded here too, so an input that cannot run gets the error alone.
    The steps every row shares run once, on a start row that every chunk
    copies: the whole preparation, or none with ``detuning_during_pulses``.
    Each chunk runs the rest and is freed once read, so at most one is
    alive at a time.
    """
    params = config.params
    prep = _preparation(params, config.mode)
    steps = [*prep, PulseSpec(PulseKind.WAIT, duration=config.wait_time), *reversed(prep)]
    start = ground_state(params).amplitudes[None, :]
    largest = float(np.abs(deltas).max())
    plan = list(_plan(params, steps, 0.0, largest))  # after the memory check, before the warning
    if config.detuning_during_pulses:
        for spec, (_, duration) in zip(steps, plan):
            if spec.kind is not PulseKind.WAIT:
                _check_detuning_phase(largest, duration, params.n_ions)
    _check_validity(params, deltas, prep)
    shared = 0 if config.detuning_during_pulses else len(prep)
    top = _run_rows(start, params, steps[:shared], plan, 0)  # the ground state's window is level 0
    end = plan[-1][0] + plan[-1][1]  # the clock after the last step
    chunk = _chunk_rows(params)
    results = []
    for block in np.split(deltas, range(chunk, deltas.size, chunk)):
        check_memory((block.size + 1) * params.dim)  # the chunk's rows and the live one-row start
        rows = np.repeat(start, block.size, axis=0)
        _run_rows(rows, params, steps[shared:], plan[shared:], top, block, config.detuning_during_pulses)
        results.append(read(rows, end))
        del rows  # before the next chunk is allocated
    return results


def ramsey_run(config: RamseyConfig, delta: float) -> tuple[StateVector, float]:
    """One Ramsey experiment at detuning ``delta``: prepare, wait T, reverse, read out.

    The one-point case of :func:`ramsey_scan`.  Returns the final state
    (frame R' at ``delta``, clock after the last pulse) and the
    excited-state probability of ion N.
    """
    params = config.params
    frame = Frame(FRAME_R_PRIME, detuning=delta)
    deltas = np.array([frame.detuning], dtype=np.float64)
    [state] = _ramsey_rows(config, deltas, lambda rows, clock: StateVector(rows[0], params, frame, clock=clock))
    return state, excited_population(state, params.n_ions)


def ramsey_scan(config: RamseyConfig) -> RamseyResult:
    """Sample the fringe over the detuning grid, in grid order.

    Grid points run as rows of one amplitude array, in chunks of at most
    ``SCAN_CHUNK_BYTES``; each sample equals what :func:`ramsey_run`
    gives for its detuning.  Detunings outside the validity window raise
    one warning for the whole scan.
    """
    if len(config.detuning_grid) == 0:
        raise InputError("detuning grid must not be empty")
    params = config.params
    deltas = np.array(config.detuning_grid, dtype=np.float64)
    readout = _ramsey_rows(config, deltas, lambda rows, _: excited_population_rows(rows, params, params.n_ions))
    p_sim = np.concatenate(readout)
    samples = [
        RamseySample(
            delta=float(delta),
            wait_time=config.wait_time,
            p_simulated=float(p),
            p_analytic=ramsey_probability(params.n_ions, float(delta), config.wait_time),
        )
        for delta, p in zip(config.detuning_grid, p_sim)
    ]
    max_err = max(abs(s.p_simulated - s.p_analytic) for s in samples)
    return RamseyResult(samples=samples, max_abs_error=max_err)


def result_to_csv(result: RamseyResult) -> str:
    """CSV serialization: header plus one row per sample, 15 significant digits."""
    lines = ["delta,T,P_sim,P_analytic"]
    for s in result.samples:
        lines.append(
            f"{s.delta:.14e},{s.wait_time:.14e},{s.p_simulated:.14e},{s.p_analytic:.14e}"
        )
    return "\n".join(lines) + "\n"


def result_to_json_dict(result: RamseyResult) -> dict:
    return {
        "samples": [
            {
                "delta": s.delta,
                "T": s.wait_time,
                "P_sim": s.p_simulated,
                "P_analytic": s.p_analytic,
            }
            for s in result.samples
        ],
        "max_abs_error": result.max_abs_error,
    }
