"""The four laser-pulse unitaries and free evolution.

All pulses drive the same |g> <-> |e> electronic transition and are
square; only which motional transition is resonant differs.  Each one
rotates two-level pairs by

    R(theta) = cos(theta/2) I + sin(theta/2) (u |e><g| - conj(u) |g><e|)

and then gives every Fock level m its free phase exp(-i nu m t_p):

* carrier pi/2 pulse on one ion: theta = pi/2 on every Fock level,
  u = e^{i phase}, so |g> -> (|g> + e^{i phase}|e>)/sqrt(2) and
  |e> -> (|e> - e^{-i phase}|g>)/sqrt(2).
* red-sideband (Jaynes-Cummings) pi pulse on one ion, resonant with the
  pair |g, n+1> <-> |e, n> at Rabi frequency Omega_0 eta sqrt(n+1)/sqrt(N),
  u = i e^{i(nu t0 + phase)}.  On the targeted pair the exact map is
      |e, n>   ->  i exp(-i nu [t0 + (n+1) t_p]) e^{-i phase} |g, n+1>
      |g, n+1> ->  i exp(+i nu [t0 - n t_p])     e^{+i phase} |e, n>
  with t_p = pi / Omega_jc(n).  |g, 0> is never coupled, and |e, n_max>
  has no partner inside the cutoff (the leakage guard keeps that honest).
* dispersive pi pulse on one ion, Rabi frequency Omega_0 eta^2 n / N on
  level n, u = e^{i phase}: on the targeted level |g> -> e^{i phase}|e>,
  |e> -> -e^{-i phase}|g>.  The n = 0 coupling vanishes identically, so
  level 0 is exactly untouched in both modes: a NOT on the ion
  conditioned on the motion not being in the ground state.
* collective dispersive pi pulse: the same flip on every ion at once.  On
  the targeted level bit word b maps to its complement with the factor
  (-1)^popcount(b) e^{i phase (N - 2 popcount(b))}.

The mode only chooses the angles, and it is read in one place, the
cached angle table (:func:`_angle_table`).  ``ideal`` turns the targeted
level or pair alone, by pi.  ``physical`` turns every coupled pair by the
angle its own Rabi frequency dictates, theta_m = pi Omega_m / Omega_n:
pi sqrt(m+1)/sqrt(n+1) for the sideband pair m, pi m / n for the
dispersive level m.  Off-target Fock levels therefore see imperfect
transfer, the honest picture of a square pulse; theta = pi is the ideal
map exactly, so both modes coincide on the targeted subspace.  The
carrier's theta = pi/2 is the same in both modes.

Applications are matrix-free and in place, on per-Fock-block views of the
flat amplitude array.  The kernels read the configuration axis from the
rows they are given: 2**N bit words, or the 2N indices s * N + k of the
sector basis (see :mod:`ionpulse.hilbert`), where ion N alone is
addressable and the popcount of index s * N + k is k + s.  A
:class:`StateVector` stored in the sector stays there for waits, pulses
on ion N and collective pi pulses, and is lifted to its whole array
before any other pulse (:func:`_sector_holds`).  Every kernel acts only
on the Fock window: levels 0 .. top, where top is the highest level
holding a nonzero amplitude in any row (NaN included; the sideband's
coupled pairs reach top + 1).  The levels above hold exact zeros,
which every pulse maps to zeros, so no kernel touches them.  A runner
that owns its state passes ``top`` to each call and moves it on with
:func:`_window_after`; a call without ``top`` finds it with
:func:`ionpulse.hilbert._fock_top`.  Before a step changes
anything its end time and the phases it forms must be finite; after it,
one pass of :func:`ionpulse.hilbert.populations` over the window gives
each row's per-level populations: the norm guard reads their sum, the
leakage guard their top level once the window reaches the cutoff.

A single-ion pulse is one broadcast update over the table's levels, with
per-level (cos, sin) columns and two temporaries; when every angle in the
table is pi it is a swap with one temporary.  A collective pulse whose
angles are all pi is one signed reversal of the configuration axis (a
cached popcount sign), in both modes: bit word b goes to its complement,
sector index f to 2N - 1 - f.  Any other collective pulse is the
single-ion kernel on each ion in turn.  The detuning phase gathers a
table of N+1 phases per row by popcount and multiplies the window.  The
kernels accept any leading batch axes:
:func:`apply_pulse_rows` applies one pulse to many states (rows of one
array, sharing one clock) in one call, and :func:`apply_pulse` is the
same code on one :class:`StateVector`.  :func:`dense_matrix` builds the
same unitaries as explicit matrices through an independent kron/loop
construction, for the test-suite to cross-check the fast path.

Phase origin: all drive fields are taken to be in phase at t = 0, so a
pulse's phase factors depend on the absolute start time t0 carried by the
state clock.  A per-pulse ``laser_phase`` offset multiplies the raising
part of the coupling by exp(i*phase).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .hilbert import (
    NORM_TOL,
    SimulationError,
    StateVector,
    TrapParams,
    _fock_top,
    _in_sector,
    _ion_view,
    _popcounts,
    _require_finite,
    levels_view,
    populations,
)

__all__ = [
    "PulseKind",
    "PulseMode",
    "PulseSpec",
    "PulseError",
    "LeakageError",
    "LEAKAGE_TOL",
    "RabiLaw",
    "pulse_duration",
    "validate_pulse_spec",
    "free_evolve",
    "apply_detuning_phase",
    "apply_pulse",
    "apply_pulse_rows",
    "dense_matrix",
]


class PulseKind(enum.Enum):
    CARRIER_PI_HALF = "carrier_pi2"
    JC_PI = "jc_pi"
    DISPERSIVE_SINGLE_PI = "disp_pi"
    DISPERSIVE_COLLECTIVE_PI = "disp_pi_all"
    WAIT = "wait"


class PulseMode(enum.Enum):
    IDEAL = "ideal"
    PHYSICAL = "physical"


class PulseError(SimulationError):
    """A pulse was mis-specified or applied to an incompatible state."""


class LeakageError(SimulationError):
    """Population reached the top Fock level, so the cutoff is no longer honest."""


#: Population allowed at n = n_max after a pulse before the truncation is
#: considered dishonest and the run aborts.
LEAKAGE_TOL = 1e-10


@dataclass(frozen=True)
class RabiLaw:
    """n-dependent Rabi frequencies of the three coupling types.

    The sideband and dispersive couplings are leading order in the
    Lamb-Dicke parameter; the single overall scale is the carrier
    frequency Omega_0 from the trap parameters.
    """

    params: TrapParams

    def carrier(self) -> float:
        return self.params.base_rabi

    def jc(self, n: int) -> float:
        """Red-sideband rate on the |g,n+1> <-> |e,n> pair."""
        p = self.params
        return p.base_rabi * p.lamb_dicke * math.sqrt(n + 1) / math.sqrt(p.n_ions)

    def dispersive(self, n: int) -> float:
        """Dispersive flip rate on Fock level n; identically zero at n = 0."""
        p = self.params
        return p.base_rabi * p.lamb_dicke**2 * n / p.n_ions


@dataclass(frozen=True)
class PulseSpec:
    """One pulse of a sequence.

    ``target_ion`` is 1-based and ignored for collective and wait steps.
    ``target_n`` labels the resonant transition: the |g,n+1> <-> |e,n>
    pair for a sideband pulse, the Fock level n for a dispersive pulse;
    ignored for carrier and wait.  ``duration`` must be given for waits
    and left None for pulses (it is derived from the Rabi frequency).
    """

    kind: PulseKind
    target_ion: int = 0
    target_n: int = 0
    mode: PulseMode = PulseMode.IDEAL
    duration: float | None = None
    laser_phase: float = 0.0


def _check_ion(params: TrapParams, ion: int) -> None:
    if not 1 <= ion <= params.n_ions:
        raise PulseError(f"target ion {ion} out of range [1, {params.n_ions}]")


def _positive_rabi(value: float, label: str) -> float:
    if not value > 0:
        raise PulseError(f"{label} Rabi frequency must be positive, got {value!r}")
    return value


def pulse_duration(spec: PulseSpec, params: TrapParams) -> float:
    """Duration of the pulse: pi/(2 Omega) for the carrier, pi/Omega otherwise."""
    if spec.kind is PulseKind.WAIT:
        if spec.duration is None or not 0 <= spec.duration < math.inf:
            raise PulseError(f"wait requires a finite duration >= 0, got {spec.duration!r}")
        return spec.duration
    law = RabiLaw(params)
    if spec.kind is PulseKind.CARRIER_PI_HALF:
        return math.pi / (2.0 * _positive_rabi(law.carrier(), "carrier"))
    if spec.kind is PulseKind.JC_PI:
        return math.pi / _positive_rabi(law.jc(spec.target_n), "sideband")
    if spec.kind in (PulseKind.DISPERSIVE_SINGLE_PI, PulseKind.DISPERSIVE_COLLECTIVE_PI):
        return math.pi / _positive_rabi(law.dispersive(spec.target_n), "dispersive")
    raise PulseError(f"unknown pulse kind {spec.kind!r}")


def validate_pulse_spec(spec: PulseSpec, params: TrapParams) -> float:
    """Raise PulseError if the spec cannot be applied under these parameters; return its duration."""
    _require_finite("laser_phase", spec.laser_phase, PulseError)
    if spec.kind is PulseKind.WAIT:
        return pulse_duration(spec, params)
    if spec.duration is not None:
        raise PulseError("pulse durations are derived from Rabi frequencies; leave duration unset")
    if spec.kind is not PulseKind.DISPERSIVE_COLLECTIVE_PI:
        _check_ion(params, spec.target_ion)
    if spec.kind is PulseKind.JC_PI:
        if spec.target_n < 0:
            raise PulseError(f"sideband target_n must be >= 0, got {spec.target_n}")
        if spec.target_n + 1 > params.fock_cutoff:
            raise PulseError(
                f"sideband pulse on n={spec.target_n} reaches Fock level "
                f"{spec.target_n + 1} beyond the cutoff {params.fock_cutoff}"
            )
    if spec.kind in (PulseKind.DISPERSIVE_SINGLE_PI, PulseKind.DISPERSIVE_COLLECTIVE_PI):
        if spec.target_n < 1:
            raise PulseError(
                "dispersive pulse requires target_n >= 1 (its Rabi frequency is zero at n = 0)"
            )
        if spec.target_n > params.fock_cutoff:
            raise PulseError(
                f"dispersive target_n {spec.target_n} beyond the cutoff {params.fock_cutoff}"
            )
    return pulse_duration(spec, params)


def _check_detuning_phase(detuning: float | np.ndarray, duration: float, n_ions: int) -> None:
    """Raise PulseError unless the largest detuning phase |Delta| * duration * N, in the table's order, is finite."""
    bound = float(np.abs(detuning).max()) * duration * n_ions
    _require_finite("the detuning phase Delta * duration * N", bound, PulseError)


def _check_step_phases(
    params: TrapParams, spec: PulseSpec, t0: float, duration: float, detuning: float | np.ndarray
) -> None:
    """Raise PulseError when the step's end time or a phase it forms is not finite, before any amplitude changes.

    Each phase is bounded at its largest factor, formed in the kernels'
    order, so a finite bound keeps every term a kernel forms finite.
    """
    _require_finite("the clock t0 + duration at the end of the step", t0 + duration, PulseError)
    if duration:  # a zero wait forms no phase
        _require_finite("the trap phase nu * n_max * duration", params.trap_freq * params.fock_cutoff * duration, PulseError)
    if spec.kind is PulseKind.JC_PI:
        _require_finite("the sideband phase nu * t0 + phase", params.trap_freq * t0 + spec.laser_phase, PulseError)
    elif spec.kind is PulseKind.WAIT:
        _check_detuning_phase(detuning, duration, params.n_ions)


@lru_cache(maxsize=64)
def _free_phases(trap_freq: float, duration: float, top: int) -> np.ndarray:
    """Read-only column exp(-i nu m duration) for the Fock levels m = 1 .. top.

    Cached because a scan repeats the same few durations in every chunk,
    and on small states building the column costs as much as applying it.
    """
    levels = np.arange(1, top + 1)
    column = np.exp(-1j * trap_freq * levels * duration)[:, None]
    column.flags.writeable = False
    return column


def _apply_free_phases(amplitudes: np.ndarray, params: TrapParams, duration: float, top: int) -> None:
    """Multiply Fock level m by exp(-i nu m duration) for m = 1 .. top.

    Level 0 carries no phase, and the levels above ``top`` hold exact
    zeros; neither is touched, so their amplitudes stay bit-identical.
    """
    levels_view(amplitudes, params)[..., 1 : top + 1, :] *= _free_phases(params.trap_freq, duration, top)


def apply_detuning_phase(
    amplitudes: np.ndarray,
    params: TrapParams,
    detuning: float | np.ndarray,
    duration: float,
    *,
    top: int | None = None,
) -> None:
    """Detuned-frame phase exp(-i Delta duration) per excited ion, one Delta per row.

    ``detuning`` is a float or an array with the leading shape of
    ``amplitudes``.  The single home of the detuning phase: free evolution
    and the ``detuning_during_pulses`` diagnostic both go through it.
    Nothing is touched when every detuning or the duration is zero.  A
    phase that is not finite raises PulseError before anything changes
    (a wait step checks it with its other phases, in
    :func:`_check_step_phases`, and calls :func:`_detuning_phase`).
    """
    if duration == 0.0 or not np.count_nonzero(detuning):
        return
    _check_detuning_phase(detuning, duration, params.n_ions)
    _detuning_phase(amplitudes, params, detuning, duration, top)


def _detuning_phase(
    amplitudes: np.ndarray, params: TrapParams, detuning: float | np.ndarray, duration: float, top: int | None
) -> None:
    """The kernel of :func:`apply_detuning_phase`, for a nonzero detuning and duration whose bound was checked.

    Each row's N+1 phases, one per popcount, are gathered by the cached
    popcount table of the rows' basis and multiply the Fock window, levels
    0 .. ``top`` (found from the amplitudes when None); the exact zeros
    above it are left as they are.
    """
    if top is None:
        top = _fock_top(amplitudes, params)
    detuning = np.asarray(detuning, dtype=np.float64)
    table = np.exp(-1j * detuning[..., None] * duration * np.arange(params.n_ions + 1))
    phase = np.take(table, _popcounts(params.n_ions, _in_sector(amplitudes, params)), axis=-1)
    levels_view(amplitudes, params)[..., : top + 1, :] *= phase[..., None, :]


def _half_angle(theta: float) -> tuple[float, float]:
    """(cos, sin) of theta/2, exact at theta = pi so a pi pulse is a clean flip."""
    if theta == math.pi:
        return 0.0, 1.0
    return math.cos(theta / 2.0), math.sin(theta / 2.0)


def _check_rows(amplitudes: np.ndarray, params: TrapParams, check_leakage: bool, top: int) -> None:
    """The guards after a step: every row's norm and, unless disabled, its population at the Fock cutoff.

    One pass over the window, levels 0 .. ``top``, gives every row's
    per-level populations (the levels above hold exact zeros): the norm
    is the root of their sum, the leakage their top level, read only when
    the window reaches the cutoff.  A NaN norm counts as drifted.
    """
    levels = populations(levels_view(amplitudes, params)[..., : top + 1, :])
    norms = np.sqrt(levels.sum(axis=-1))
    within = np.abs(norms - 1.0) <= NORM_TOL
    if np.count_nonzero(within) != within.size:
        row = int(np.flatnonzero(~within)[0])
        where = f" in row {row}" if within.ndim else ""
        norm = float(np.reshape(norms, -1)[row])
        raise SimulationError(f"state norm drifted to {norm!r}{where} (|norm - 1| > {NORM_TOL})")
    if not check_leakage or top < params.fock_cutoff:
        return
    cutoff = levels[..., -1]
    if np.count_nonzero(cutoff > LEAKAGE_TOL):
        raise LeakageError(
            f"population {np.max(cutoff):.3e} at the Fock cutoff n={params.fock_cutoff}; "
            "raise fock_cutoff for a trustworthy simulation"
        )


@lru_cache(maxsize=256)
def _angle_table(
    kind: PulseKind, mode: PulseMode, target_n: int, n_levels: int, top: int
) -> tuple[slice, np.ndarray, np.ndarray, bool]:
    """The pulse's coupled levels m <= top, (cos, sin) of theta_m/2 per level, and whether every theta_m is pi.

    The one place a pulse's mode is read.  Level m stands for the pair
    (|g,m+1>, |e,m>) of the sideband and for the level itself otherwise.
    The columns are read-only, shaped (levels, 1, 1), and complex, so a
    product with a state's amplitudes casts nothing (a cast makes NumPy
    copy through buffers); the values are those of the real columns.  An
    empty window counts as all pi (there is nothing to rotate).
    """
    if kind is PulseKind.CARRIER_PI_HALF:
        levels = range(top + 1)
        thetas = [math.pi / 2.0] * len(levels)
    elif mode is PulseMode.IDEAL:
        levels = range(target_n, min(target_n, top) + 1)
        thetas = [math.pi] * len(levels)
    elif kind is PulseKind.JC_PI:
        levels = range(min(top + 1, n_levels - 1))
        thetas = [math.pi * math.sqrt(m + 1) / math.sqrt(target_n + 1) for m in levels]
    else:
        levels = range(1, top + 1)
        thetas = [math.pi * m / target_n for m in levels]
    halves = np.array([_half_angle(theta) for theta in thetas], dtype=np.complex128)
    cos, sin = halves.reshape(-1, 2).T.reshape(2, -1, 1, 1)
    cos.flags.writeable = sin.flags.writeable = False
    return slice(levels.start, levels.stop), cos, sin, all(theta == math.pi for theta in thetas)


def _rotate_one_ion(amplitudes: np.ndarray, params: TrapParams, ion: int, table, shift: int, u: complex) -> None:
    """R(theta_m) on the ion's pairs (a, b) = (|g, m+shift>, |e, m>) over the table's levels.

    In place (a, b) <- (c a + x b, c b + y a) with x = -s conj(u), y = s u,
    broadcast over the levels with the table's (c, s) columns: two
    temporaries the size of ``a``, and no view is copied.  When every
    angle is pi (c = 0, s = 1) the update is the swap (x b, y a) with one
    temporary.
    """
    levels, cos, sin, all_pi = table
    view = _ion_view(amplitudes, params, ion)
    a = view[..., levels.start + shift : levels.stop + shift, :, 0, :]
    b = view[..., levels, :, 1, :]
    x = -u.conjugate()
    if all_pi:
        new_a = x * b
        np.multiply(u, a, out=b)
        a[...] = new_a
        return
    new_a = cos * a
    new_a += (sin * x) * b
    term = (sin * u) * a
    b *= cos
    b += term
    a[...] = new_a


@lru_cache(maxsize=8)
def _collective_flip(n_ions: int, laser_phase: float, sector: bool = False) -> np.ndarray:
    """Factor (-1)^popcount(b) e^{i phase (N - 2 popcount(b))} per bit word b (per sector index with ``sector``), read-only.

    An int8 sign at laser phase 0, 1 B per word; a product with it is
    bit-identical to one with a float64 sign.
    """
    pc = _popcounts(n_ions, sector)
    coef = np.where(pc & 1, np.int8(-1), np.int8(1))
    if laser_phase != 0.0:
        coef = coef * np.exp(1j * laser_phase * (n_ions - 2 * pc.astype(np.int64)))  # signed: uint8 wraps
    coef.flags.writeable = False
    return coef


def _rotate_every_ion(amplitudes: np.ndarray, params: TrapParams, laser_phase: float, table) -> None:
    """R(theta_m) with u = e^{i phase} on every ion at once, over the table's levels.

    Rotations on different ions commute, so turning one ion at a time
    applies R(theta_m)^{(x)N}.
    """
    levels, _, _, all_pi = table
    if not all_pi:
        u = np.exp(1j * laser_phase)
        for ion in range(1, params.n_ions + 1):
            _rotate_one_ion(amplitudes, params, ion, table, 0, u)
        return
    blocks = levels_view(amplitudes, params)[..., levels, :]
    flipped = _collective_flip(params.n_ions, laser_phase, _in_sector(amplitudes, params)) * blocks
    # Reversing the config axis maps bit word b to its complement mask - b,
    # and sector index s * N + k to (1 - s) * N + (N - 1 - k) = 2N - 1 - index.
    blocks[...] = flipped[..., ::-1]


def _sideband_top(table, top: int) -> int:
    """The window a sideband leaves from window ``top``: its highest pair's |g> level at most."""
    return max(top, table[0].stop)


def apply_pulse_rows(
    amplitudes: np.ndarray,
    params: TrapParams,
    spec: PulseSpec,
    t0: float,
    detuning: float | np.ndarray = 0.0,
    *,
    check_leakage: bool = True,
    top: int | None = None,
) -> float:
    """Apply one PulseSpec in place to amplitude rows of shape (..., dim); return its duration.

    Every row is one state, and all rows share the start time ``t0``.
    The rows may instead be one state's 2N(n_max + 1) sector coefficients,
    for a pulse the sector represents (see :func:`apply_pulse`).
    ``detuning`` (one per row, or one for all) only enters wait steps.  A
    step whose end time or phases are not finite raises PulseError before
    it changes any amplitude.  ``top`` is the rows' Fock window from a
    caller that tracks it (see :func:`_window_after`); without it the
    window is found from the amplitudes.  A pulse rotates the pairs its
    angle table lists and then gives the window its free phase.  After the
    step every row's norm is checked, and after a pulse every row's
    population at the Fock cutoff, unless ``check_leakage=False``; that
    bypass is meant for unitary-equivalence checks on synthetic
    full-support states, not for simulations.
    """
    duration = validate_pulse_spec(spec, params)
    _check_step_phases(params, spec, t0, duration, detuning)
    if top is None:
        top = _fock_top(amplitudes, params)
    if spec.kind is PulseKind.WAIT:
        if duration > 0:
            _apply_free_phases(amplitudes, params, duration, top)
            if np.count_nonzero(detuning):  # its bound was checked above
                _detuning_phase(amplitudes, params, detuning, duration, top)
        check_leakage = False  # phases move no population
    else:
        table = _angle_table(spec.kind, spec.mode, spec.target_n, params.n_levels, top)
        if spec.kind is PulseKind.DISPERSIVE_COLLECTIVE_PI:
            _rotate_every_ion(amplitudes, params, spec.laser_phase, table)
        elif spec.kind is PulseKind.JC_PI:
            u = 1j * np.exp(1j * (params.trap_freq * t0 + spec.laser_phase))
            _rotate_one_ion(amplitudes, params, spec.target_ion, table, 1, u)
            top = _sideband_top(table, top)
        else:
            _rotate_one_ion(amplitudes, params, spec.target_ion, table, 0, np.exp(1j * spec.laser_phase))
        _apply_free_phases(amplitudes, params, duration, top)
    _check_rows(amplitudes, params, check_leakage, top)
    return duration


def _sector_holds(spec: PulseSpec, params: TrapParams, top: int) -> bool:
    """Whether the sector basis represents ``spec`` on window ``top``.

    A wait and a pulse on ion N do; so does a collective pulse that turns
    every level by pi, a signed reversal.  Any other collective pulse turns
    the ions one at a time, through states outside the sector.
    """
    if spec.kind is PulseKind.DISPERSIVE_COLLECTIVE_PI:
        return spec.target_n >= 1 and _angle_table(spec.kind, spec.mode, spec.target_n, params.n_levels, top)[3]
    return spec.kind is PulseKind.WAIT or spec.target_ion == params.n_ions


def apply_pulse(
    state: StateVector, spec: PulseSpec, *, check_leakage: bool = True, top: int | None = None
) -> StateVector:
    """Apply one PulseSpec to the state at its clock; see :func:`apply_pulse_rows`.

    A sector-stored state stays in the sector when it represents ``spec``
    (:func:`_sector_holds`); otherwise its whole array is built first.
    """
    params = state.params
    rows = state._rows()
    if _in_sector(rows, params):
        if top is None:
            top = _fock_top(rows, params)
        if not _sector_holds(spec, params, top):
            rows = state.amplitudes
    duration = apply_pulse_rows(rows, params, spec, state.clock, state.frame.detuning, check_leakage=check_leakage, top=top)
    state.clock = state.clock + duration
    return state


def _window_after(amplitudes: np.ndarray, params: TrapParams, spec: PulseSpec, top: int) -> int:
    """The Fock window of rows that ``spec`` was just applied to with window ``top``.

    A sideband raises it as its free-phase pass did, then :func:`ionpulse.hilbert._fock_top`
    lowers it: a runner keeps its window exact without reading the levels above it.
    """
    if spec.kind is PulseKind.JC_PI:
        top = _sideband_top(_angle_table(spec.kind, spec.mode, spec.target_n, params.n_levels, top), top)
    return _fock_top(amplitudes, params, top)


def free_evolve(state: StateVector, duration: float) -> StateVector:
    """Let the system evolve freely for ``duration``.

    Fock level m picks up exp(-i nu m T); in a detuned frame each basis
    state additionally picks up exp(-i Delta T) per excited ion.
    """
    return apply_pulse(state, PulseSpec(PulseKind.WAIT, duration=duration))


# --------------------------------------------------------------------------
# Dense oracle
# --------------------------------------------------------------------------

_DENSE_DIM_LIMIT = 4096


def _kron_all(ops: list[np.ndarray]) -> np.ndarray:
    """Kronecker product with ion N as the most significant factor."""
    return reduce(np.kron, ops)


def _ion_op(n_ions: int, ion: int, op: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator (basis order g, e) onto one ion of the register."""
    eye = np.eye(2, dtype=np.complex128)
    ops = [op if j == ion else eye for j in range(n_ions, 0, -1)]
    return _kron_all(ops)


def _rotation_2x2(theta: float, laser_phase: float) -> np.ndarray:
    c, s = _half_angle(theta)
    up = np.exp(1j * laser_phase)
    return np.array([[c, -s * np.conj(up)], [s * up, c]], dtype=np.complex128)


def dense_matrix(
    spec: PulseSpec,
    params: TrapParams,
    t0: float = 0.0,
    detuning: float = 0.0,
) -> np.ndarray:
    """Explicit unitary of the pulse, for cross-checks against the fast path.

    Built from per-level 2x2 blocks via Kronecker products and explicit
    pair stitching, deliberately sharing no code with the matrix-free
    application.  ``detuning`` only matters for wait steps.  Limited to
    dimension 4096.
    """
    if params.dim > _DENSE_DIM_LIMIT:
        raise PulseError(f"dense matrix limited to dimension {_DENSE_DIM_LIMIT}, got {params.dim}")
    duration = validate_pulse_spec(spec, params)
    nu = params.trap_freq
    nc = params.n_configs
    matrix = np.zeros((params.dim, params.dim), dtype=np.complex128)
    free = np.exp(-1j * nu * np.arange(params.n_levels) * duration)

    def block(level: int) -> slice:
        return slice(level * nc, (level + 1) * nc)

    if spec.kind is PulseKind.CARRIER_PI_HALF:
        rot = _rotation_2x2(math.pi / 2.0, spec.laser_phase)
        op = _ion_op(params.n_ions, spec.target_ion, rot)
        for level in range(params.n_levels):
            matrix[block(level), block(level)] = free[level] * op
        return matrix

    if spec.kind is PulseKind.JC_PI:
        bit = 1 << (spec.target_ion - 1)
        if spec.mode is PulseMode.IDEAL:
            n = spec.target_n
            down = 1j * np.exp(-1j * (nu * (t0 + (n + 1) * duration) + spec.laser_phase))
            up = 1j * np.exp(1j * (nu * (t0 - n * duration) + spec.laser_phase))
            for level in range(params.n_levels):
                for bits in range(nc):
                    row = level * nc + bits
                    if level == n + 1 and not bits & bit:
                        matrix[row, n * nc + (bits | bit)] = down
                    elif level == n and bits & bit:
                        matrix[row, (n + 1) * nc + (bits & ~bit)] = up
                    else:
                        matrix[row, row] = free[level]
            return matrix
        alpha = nu * t0 + spec.laser_phase
        for level in range(params.n_levels):
            for bits in range(nc):
                col = level * nc + bits
                if bits & bit and level < params.fock_cutoff:
                    pair = level
                elif not bits & bit and level >= 1:
                    pair = level - 1
                else:
                    matrix[col, col] = free[level]
                    continue
                theta = math.pi * math.sqrt(pair + 1) / math.sqrt(spec.target_n + 1)
                c, s = _half_angle(theta)
                if bits & bit:
                    # column |e, level>: stays or climbs to |g, level+1>
                    matrix[col, col] = free[level] * c
                    matrix[(level + 1) * nc + (bits & ~bit), col] = (
                        free[level + 1] * 1j * s * np.exp(-1j * alpha)
                    )
                else:
                    # column |g, level>: stays or drops to |e, level-1>
                    matrix[col, col] = free[level] * c
                    matrix[(level - 1) * nc + (bits | bit), col] = (
                        free[level - 1] * 1j * s * np.exp(1j * alpha)
                    )
        return matrix

    if spec.kind is PulseKind.DISPERSIVE_SINGLE_PI:
        for level in range(params.n_levels):
            if spec.mode is PulseMode.IDEAL:
                theta = math.pi if level == spec.target_n else 0.0
            else:
                theta = math.pi * level / spec.target_n
            op = _ion_op(params.n_ions, spec.target_ion, _rotation_2x2(theta, spec.laser_phase))
            matrix[block(level), block(level)] = free[level] * op
        return matrix

    if spec.kind is PulseKind.DISPERSIVE_COLLECTIVE_PI:
        for level in range(params.n_levels):
            if spec.mode is PulseMode.IDEAL:
                theta = math.pi if level == spec.target_n else 0.0
            else:
                theta = math.pi * level / spec.target_n
            rot = _rotation_2x2(theta, spec.laser_phase)
            op = _kron_all([rot] * params.n_ions)
            matrix[block(level), block(level)] = free[level] * op
        return matrix

    if spec.kind is PulseKind.WAIT:
        pc = _popcounts(params.n_ions)
        for level in range(params.n_levels):
            for bits in range(nc):
                idx = level * nc + bits
                matrix[idx, idx] = free[level] * np.exp(-1j * detuning * duration * pc[bits])
        return matrix

    raise PulseError(f"unknown pulse kind {spec.kind!r}")
