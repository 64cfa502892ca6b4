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
addressable and the popcount of index s * N + k is k + s.  The one
step kernel decides from the angle table it reads: on sector rows, a
turn on an ion j < N or a collective turn whose angles are not all pi
returns before it writes anything, and :func:`apply_pulse` lifts the
:class:`StateVector` to its whole array and runs the step there.  Every
other step, a pulse on ion j < N that writes nothing included, keeps a
sector-stored state in the sector.  Every kernel acts only
on the Fock window: levels 0 .. top, where top is the highest level
holding a nonzero amplitude in any row (NaN included; the sideband's
coupled pairs reach top + 1).  The levels above hold exact zeros,
which every pulse maps to zeros, so no kernel touches them.  A step's
spec is validated and its phases checked in one place, :func:`_plan`,
once per run: a runner plans its steps and passes each one's duration,
and an :func:`apply_pulse` call without one plans its own step.  Before
a step changes anything its end time and the phases it forms must be finite;
after it, one pass of
:func:`ionpulse.hilbert.populations` over the window gives each row's
per-level populations: the norm guard reads their sum, the leakage
guard their top level once the window reaches the cutoff.  Every step
returns them, and but for a level whose
population is exactly 0 that pass is the only read of a step's state: a
runner that owns its state passes ``top`` to each call and takes the
next window from the populations (:func:`ionpulse.hilbert._fock_top`),
and ``ionpulse run`` its step record.  A call without ``top`` finds it
with ``_fock_top`` alone.  A runner that passes the last step's
populations as ``known`` gets them back unread from a step that writes
no amplitude (a zero wait, a wait at window 0 with zero detuning, a
pulse whose angle table is empty at window 0), and keeps its window.  At
window 0 a sideband's one pair is (|g,1>, |e,0>); when the target ion's
|e> half of level 0 holds only zeros, the pair holds only zeros and the
pulse acts as an empty table for every caller: it turns nothing, raises
no window and takes no free phase.

A single-ion pulse is one broadcast update over the table's levels, with
scalar (cos, sin) when the table holds one angle on every level (the
carrier, and every table of one level) and per-level columns otherwise,
and two temporaries; when every angle in the table is pi it is a swap
with one temporary.  A free phase on a window of one level multiplies
that level by one scalar.  A collective pulse whose
angles are all pi is one signed reversal of the configuration axis (a
cached popcount sign), in both modes: bit word b goes to its complement,
sector index f to 2N - 1 - f.  Any other collective pulse is the
single-ion kernel on each ion in turn.  The detuning phase gathers a
table of N+1 phases per row by popcount and multiplies the window.  The
kernels accept any leading batch axes: one :func:`_step_rows` call
applies a planned step to many states (rows of one array, sharing one
clock), as a Ramsey scan runs its grid, and :func:`apply_pulse` runs the
same kernel on one :class:`StateVector`.  :func:`dense_matrix` builds the
same unitaries as explicit matrices through an independent kron/loop
construction, for the test-suite to cross-check the fast path.

The per-step functions read enum members through names bound at import and
hash them by identity: on Python 3.10/3.11 a class read or hash runs Python code.

Phase origin: all drive fields are taken to be in phase at t = 0, so a
pulse's phase factors depend on the absolute start time t0 carried by the
state clock.  A per-pulse ``laser_phase`` offset multiplies the raising
part of the coupling by exp(i*phase).
"""

from __future__ import annotations

import cmath
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
    "pulse_duration",
    "validate_pulse_spec",
    "free_evolve",
    "apply_pulse",
    "dense_matrix",
]


class PulseKind(enum.Enum):
    CARRIER_PI_HALF = "carrier_pi2"
    JC_PI = "jc_pi"
    DISPERSIVE_SINGLE_PI = "disp_pi"
    DISPERSIVE_COLLECTIVE_PI = "disp_pi_all"
    WAIT = "wait"

    __hash__ = object.__hash__  # members are singletons compared by identity


class PulseMode(enum.Enum):
    IDEAL = "ideal"
    PHYSICAL = "physical"

    __hash__ = object.__hash__


# The per-step code reads members through these names: on Python 3.10/3.11 a PulseKind.X read runs EnumType's __getattr__.
_CARRIER, _JC, _DISP, _DISP_ALL, _WAIT = PulseKind  # in declaration order
_IDEAL = PulseMode.IDEAL


class PulseError(SimulationError):
    """A pulse was mis-specified or applied to an incompatible state."""


class LeakageError(SimulationError):
    """Population reached the top Fock level, so the cutoff is no longer honest."""


#: Population allowed at n = n_max after a pulse before the truncation is
#: considered dishonest and the run aborts.
LEAKAGE_TOL = 1e-10


def _rabi_rate(kind: PulseKind, params: TrapParams, n: int) -> float:
    """Rabi frequency of a ``kind`` pulse on Fock level n (on the pair |g,n+1> <-> |e,n> for the sideband).

    The sideband and dispersive couplings are leading order in the
    Lamb-Dicke parameter; the single overall scale is the carrier
    frequency Omega_0 from the trap parameters.  The dispersive rate is
    identically zero at n = 0.
    """
    if kind is _CARRIER:
        return params.base_rabi
    if kind is _JC:
        return params.base_rabi * params.lamb_dicke * math.sqrt(n + 1) / math.sqrt(params.n_ions)
    if kind in (_DISP, _DISP_ALL):
        return params.base_rabi * params.lamb_dicke**2 * n / params.n_ions
    raise PulseError(f"unknown pulse kind {kind!r}")


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


def pulse_duration(spec: PulseSpec, params: TrapParams) -> float:
    """Duration of the pulse: pi/(2 Omega) for the carrier, pi/Omega otherwise."""
    if spec.kind is _WAIT:
        if spec.duration is None or not 0 <= spec.duration < math.inf:
            raise PulseError(f"wait requires a finite duration >= 0, got {spec.duration!r}")
        return spec.duration
    rate = _rabi_rate(spec.kind, params, spec.target_n)
    if not rate > 0:
        name = {_CARRIER: "carrier", _JC: "sideband"}.get(spec.kind, "dispersive")
        raise PulseError(f"{name} Rabi frequency must be positive, got {rate!r}")
    return math.pi / (2.0 * rate) if spec.kind is _CARRIER else math.pi / rate


def validate_pulse_spec(spec: PulseSpec, params: TrapParams) -> float:
    """Raise PulseError if the spec cannot be applied under these parameters; return its duration."""
    _require_finite("laser_phase", spec.laser_phase, PulseError)
    if spec.kind is _WAIT:
        return pulse_duration(spec, params)
    if spec.duration is not None:
        raise PulseError("pulse durations are derived from Rabi frequencies; leave duration unset")
    if spec.kind is not _DISP_ALL:
        _check_ion(params, spec.target_ion)
    if spec.kind is _JC:
        if spec.target_n < 0:
            raise PulseError(f"sideband target_n must be >= 0, got {spec.target_n}")
        if spec.target_n + 1 > params.fock_cutoff:
            raise PulseError(
                f"sideband pulse on n={spec.target_n} reaches Fock level "
                f"{spec.target_n + 1} beyond the cutoff {params.fock_cutoff}"
            )
    if spec.kind in (_DISP, _DISP_ALL):
        if spec.target_n < 1:
            raise PulseError(
                "dispersive pulse requires target_n >= 1 (its Rabi frequency is zero at n = 0)"
            )
        if spec.target_n > params.fock_cutoff:
            raise PulseError(
                f"dispersive target_n {spec.target_n} beyond the cutoff {params.fock_cutoff}"
            )
    return pulse_duration(spec, params)


def _check_detuning_phase(detuning: float, duration: float, n_ions: int) -> None:
    """Raise PulseError unless the largest detuning phase, |Delta| * duration * N in the table's order, is finite."""
    _require_finite("the detuning phase Delta * duration * N", detuning * duration * n_ions, PulseError)


def _check_step_phases(params: TrapParams, spec: PulseSpec, t0: float, duration: float, detuning: float) -> None:
    """Raise PulseError when the step's end time or a phase it forms is not finite, before any amplitude changes.

    Each phase is bounded at its largest factor, formed in the kernels'
    order, so a finite bound keeps every term a kernel forms finite;
    ``detuning`` is the largest |Delta| of the rows.
    """
    _require_finite("the clock t0 + duration at the end of the step", t0 + duration, PulseError)
    if duration:  # a zero wait forms no phase
        _require_finite("the trap phase nu * n_max * duration", params.trap_freq * params.fock_cutoff * duration, PulseError)
    if spec.kind is _JC:
        _require_finite("the sideband phase nu * t0 + phase", params.trap_freq * t0 + spec.laser_phase, PulseError)
    elif spec.kind is _WAIT:
        _check_detuning_phase(detuning, duration, params.n_ions)


def _plan(params: TrapParams, specs, clock: float, largest_detuning: float, durations: list[float | None] | None = None):
    """Yield each step's (start clock, duration) from ``clock``, or raise PulseError at the first step that cannot run.

    The one place a step is validated (where ``durations`` holds None
    for it), its phases checked at its start clock, summed as
    ``state.clock`` advances, with the rows' ``largest_detuning`` |Delta|,
    and the clock summed.  A runner that plans up front takes a list of
    it; one that iterates it beside its steps plans each as it reaches it.
    """
    for spec, duration in zip(specs, durations or [None] * len(specs)):
        if duration is None:
            duration = validate_pulse_spec(spec, params)
        _check_step_phases(params, spec, clock, duration, largest_detuning)
        yield clock, duration
        clock = clock + duration


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

    A window of one level is multiplied by one scalar, formed by the same
    ``np.exp`` as the column's entry for m = 1; a wider one by the column
    of :func:`_free_phases`.  Level 0 carries no phase, and the levels
    above ``top`` hold exact zeros; neither is touched, so their
    amplitudes stay bit-identical.
    """
    levels = levels_view(amplitudes, params)
    if top == 1:
        levels[..., 1, :] *= np.exp(-1j * params.trap_freq * duration)
    else:
        levels[..., 1 : top + 1, :] *= _free_phases(params.trap_freq, duration, top)


def _detuning_phase(
    amplitudes: np.ndarray, params: TrapParams, detuning: float | np.ndarray, duration: float, top: int
) -> None:
    """Detuned-frame phase exp(-i Delta duration) per excited ion, one Delta per row of ``amplitudes``.

    For a nonzero detuning and duration whose phase bound was checked: a
    wait's with its other phases (:func:`_check_step_phases`), a scan's
    ``detuning_during_pulses`` phases once per scan
    (:func:`ionpulse.protocol._ramsey_rows`).

    Each row's N+1 phases, one per popcount, are gathered by the cached
    popcount table of the rows' basis and multiply the Fock window, levels
    0 .. ``top``; the exact zeros above it are left as they are.
    """
    detuning = np.asarray(detuning, dtype=np.float64)
    table = np.exp(-1j * detuning[..., None] * duration * np.arange(params.n_ions + 1))
    phase = np.take(table, _popcounts(params.n_ions, _in_sector(amplitudes, params)), axis=-1)
    levels_view(amplitudes, params)[..., : top + 1, :] *= phase[..., None, :]


def _half_angle(theta: float) -> tuple[float, float]:
    """(cos, sin) of theta/2, exact at theta = pi so a pi pulse is a clean flip."""
    if theta == math.pi:
        return 0.0, 1.0
    return math.cos(theta / 2.0), math.sin(theta / 2.0)


def _check_rows(amplitudes: np.ndarray, params: TrapParams, check_leakage: bool, top: int) -> np.ndarray:
    """The guards after a step: every row's norm and, unless disabled, its population at the Fock cutoff.

    One pass over the window, levels 0 .. ``top``, gives every row's
    per-level populations, which are returned (the levels above hold
    exact zeros): the norm is the root of their sum, the leakage their
    top level, read only when the window reaches the cutoff.  The norms
    within NORM_TOL of 1 are those of sums in one interval around 1 (the
    root and the rounded difference are monotone), so the smallest and
    largest sums decide for every row; NaN propagates and fails.
    """
    levels = populations(levels_view(amplitudes, params)[..., : top + 1, :])
    sums = levels.sum(axis=-1)
    low, high = (sums, sums) if sums.ndim == 0 else (np.minimum.reduce(sums, None, initial=1.0), np.maximum.reduce(sums, None, initial=1.0))
    if not (abs(math.sqrt(low) - 1.0) <= NORM_TOL and abs(math.sqrt(high) - 1.0) <= NORM_TOL):
        norms = np.sqrt(sums)
        row = int(np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))[0])
        where = f" in row {row}" if norms.ndim else ""
        norm = float(np.reshape(norms, -1)[row])
        raise SimulationError(f"state norm drifted to {norm!r}{where} (|norm - 1| > {NORM_TOL})")
    if not check_leakage or top < params.fock_cutoff:
        return levels
    cutoff = levels[..., -1]
    if np.count_nonzero(cutoff > LEAKAGE_TOL):
        raise LeakageError(
            f"population {np.max(cutoff):.3e} at the Fock cutoff n={params.fock_cutoff}; "
            "raise fock_cutoff for a trustworthy simulation"
        )
    return levels


@lru_cache(maxsize=256)
def _angle_table(
    kind: PulseKind, mode: PulseMode, target_n: int, n_levels: int, top: int
) -> tuple[slice, np.ndarray, np.ndarray, bool]:
    """The pulse's coupled levels m <= top, (cos, sin) of theta_m/2 per level, and whether every theta_m is pi.

    The one place a pulse's mode is read.  Level m stands for the pair
    (|g,m+1>, |e,m>) of the sideband and for the level itself otherwise.
    (cos, sin) are complex, so a product with a state's amplitudes casts
    nothing (a cast makes NumPy copy through buffers); the values are
    those of the real angles.  A table that holds one angle on every
    level (the carrier, and any table of one level) gives them as two
    scalars; any other as read-only columns shaped (levels, 1, 1).  An
    empty window counts as all pi (there is nothing to rotate).
    """
    if kind is _CARRIER:
        levels = range(top + 1)
        thetas = [math.pi / 2.0] * len(levels)
    elif mode is _IDEAL:
        levels = range(target_n, min(target_n, top) + 1)
        thetas = [math.pi] * len(levels)
    elif kind is _JC:
        levels = range(min(top + 1, n_levels - 1))
        thetas = [math.pi * math.sqrt(m + 1) / math.sqrt(target_n + 1) for m in levels]
    else:
        levels = range(1, top + 1)
        thetas = [math.pi * m / target_n for m in levels]
    halves = [_half_angle(theta) for theta in thetas]
    if len(set(thetas)) == 1:
        cos, sin = complex(halves[0][0]), complex(halves[0][1])
    else:
        cos, sin = np.array(halves, dtype=np.complex128).reshape(-1, 2).T.reshape(2, -1, 1, 1)
        cos.flags.writeable = sin.flags.writeable = False
    return slice(levels.start, levels.stop), cos, sin, all(theta == math.pi for theta in thetas)


def _rotate_one_ion(amplitudes: np.ndarray, params: TrapParams, ion: int, table, shift: int, u: complex) -> None:
    """R(theta_m) on the ion's pairs (a, b) = (|g, m+shift>, |e, m>) over the table's levels, which must not be empty.

    In place (a, b) <- (c a + x b, c b + y a) with x = -s conj(u), y = s u,
    broadcast over the levels with the table's (c, s): two temporaries the
    size of ``a``, and no view is copied.  When every angle is pi (c = 0,
    s = 1) the update is the swap (x b, y a) with one temporary.
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
    """R(theta_m) with u = e^{i phase} on every ion at once, over the table's levels, which must not be empty.

    Rotations on different ions commute, so turning one ion at a time
    applies R(theta_m)^{(x)N}.
    """
    levels, _, _, all_pi = table
    if not all_pi:
        u = cmath.exp(1j * laser_phase)
        for ion in range(1, params.n_ions + 1):
            _rotate_one_ion(amplitudes, params, ion, table, 0, u)
        return
    blocks = levels_view(amplitudes, params)[..., levels, :]
    flipped = _collective_flip(params.n_ions, laser_phase, _in_sector(amplitudes, params)) * blocks
    # Reversing the config axis maps bit word b to its complement mask - b,
    # and sector index s * N + k to (1 - s) * N + (N - 1 - k) = 2N - 1 - index.
    blocks[...] = flipped[..., ::-1]


def _step_rows(
    amplitudes: np.ndarray, params: TrapParams, spec: PulseSpec, t0: float, detuning: float | np.ndarray, duration: float, top: int,
    check_leakage: bool = True, known: np.ndarray | None = None,
) -> np.ndarray | None:
    """Apply a planned step (:func:`_plan`) in place to rows of shape (..., dim) from Fock window ``top``; return its populations.

    Every row is one state, and all rows share the start time ``t0``;
    ``detuning`` (one per row, or one for all) only enters wait steps.
    The rows may instead be one state's 2N(n_max + 1) sector coefficients:
    a turn the sector does not represent, on an ion j < N or a collective
    one whose angles are not all pi, returns None before it writes
    anything.  A pulse rotates the pairs its angle table lists and then
    gives the window its free phase (a sideband's reaches its highest
    pair's |g> level); level 0 takes none.  After the step every row's
    norm is checked, and after a pulse its population at the cutoff
    unless ``check_leakage=False`` (for unitary-equivalence checks on
    synthetic full-support states).  The populations are the guards' one
    pass (:func:`_check_rows`), from which a runner takes its next window;
    ``known``, the last guard's, is returned unread by a step that writes
    no amplitude.
    """
    if spec.kind is _WAIT:
        kick = duration > 0 and np.count_nonzero(detuning)  # its bound was checked with the step's phases
        if known is not None and not (kick or duration > 0 and top):
            return known  # no free phase above level 0 and no detuning phase: nothing to write
        if duration > 0 and top:
            _apply_free_phases(amplitudes, params, duration, top)
        if kick:
            _detuning_phase(amplitudes, params, detuning, duration, top)
        check_leakage = False  # phases move no population
    else:
        table = _angle_table(spec.kind, spec.mode, spec.target_n, params.n_levels, top)
        coupled = table[0]
        turns = coupled.start < coupled.stop
        last = spec.target_ion == params.n_ions
        if turns and not top and spec.kind is _JC:
            # At window 0 the one pair is (|g,1>, |e,0>), and |g,1> holds zeros: a pair of zeros acts as an empty table.
            if not last and _in_sector(amplitudes, params):  # ion j < N is excited in some word of every D_k with k >= 1
                turns = _ion_view(amplitudes, params, params.n_ions)[..., 0, :, :, 1:].any()
            else:
                turns = _ion_view(amplitudes, params, spec.target_ion)[..., 0, :, 1, :].any()  # NaN counts as nonzero
        if turns:
            if not (table[3] if spec.kind is _DISP_ALL else last) and _in_sector(amplitudes, params):
                return None  # the turn leaves the sector: nothing written, the caller lifts the rows
            if spec.kind is _DISP_ALL:
                _rotate_every_ion(amplitudes, params, spec.laser_phase, table)
            elif spec.kind is _JC:
                # a Python complex from cmath.exp (np.exp's values), so the kernel's scalar products are Python arithmetic
                u = 1j * cmath.exp(1j * (params.trap_freq * t0 + spec.laser_phase))
                _rotate_one_ion(amplitudes, params, spec.target_ion, table, 1, u)
                top = max(top, coupled.stop)
            else:
                _rotate_one_ion(amplitudes, params, spec.target_ion, table, 0, cmath.exp(1j * spec.laser_phase))
        elif known is not None and not top:
            return known  # no pair to turn and no level above 0 to phase: nothing to write
        if top:
            _apply_free_phases(amplitudes, params, duration, top)
    return _check_rows(amplitudes, params, check_leakage, top)


def apply_pulse(
    state: StateVector,
    spec: PulseSpec,
    *,
    check_leakage: bool = True,
    top: int | None = None,
    duration: float | None = None,
    known: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Apply one PulseSpec to the state at its clock; return its duration and the populations of :func:`_step_rows`.

    ``duration`` marks a step a runner planned; without it the step is
    planned here (:func:`_plan`), so a spec or phase that cannot run
    raises PulseError before any amplitude changes.  ``top`` is the
    state's Fock window from a runner that tracks it, found from the
    stored rows without it, and ``known`` the populations its last guard
    read.  A sector-stored state stays in the sector unless the step turns
    a pair the sector does not represent; then the step, having written
    nothing, runs on the state's whole array, built for it, without
    ``known``.
    """
    params, clock, detuning = state.params, state.clock, state.frame.detuning
    if duration is None:
        [(_, duration)] = _plan(params, [spec], clock, abs(detuning))
    rows = state._rows()
    if top is None:
        top = _fock_top(rows, params)
    levels = _step_rows(rows, params, spec, clock, detuning, duration, top, check_leakage, known)
    if levels is None:
        levels = _step_rows(state.amplitudes, params, spec, clock, detuning, duration, top, check_leakage)
    state.clock = clock + duration
    return duration, levels


def free_evolve(state: StateVector, duration: float) -> StateVector:
    """Let the system evolve freely for ``duration``.

    Fock level m picks up exp(-i nu m T); in a detuned frame each basis
    state additionally picks up exp(-i Delta T) per excited ion.
    """
    apply_pulse(state, PulseSpec(PulseKind.WAIT, duration=duration))
    return state


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
