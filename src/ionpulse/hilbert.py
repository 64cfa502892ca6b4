"""State representation for N two-level ions sharing one vibrational mode.

The joint basis is |s_1 ... s_N>|n>: an N-bit electronic configuration
(bit j-1 set means ion j is in |e>) together with a Fock level n of the
collective axial mode, truncated at n_max.  Amplitudes are stored flat,
Fock index major::

    flat = fock_n * 2**N + ion_bits

so each Fock level occupies one contiguous block of 2**N amplitudes and
pulse operators can act block by block without ever forming a matrix.
The row-level helpers (:func:`levels_view`, :func:`populations`,
:func:`excited_population_rows`) also accept arrays with leading batch
axes, one state per row of length dim.

Every population has one home, :func:`populations`: the sum of |a|^2
over the last axis, one ``np.einsum`` over the float64 view with no BLAS
call and no temporary the size of the state.  The norm, the Fock
marginal, an ion's excited-state readout and the pulse guards (see
:mod:`ionpulse.pulses`) all read it.

The Fock window is the levels up to the highest one holding a nonzero
amplitude (NaN included), found by :func:`_fock_top` from a known bound
or the cutoff.  The runners that own their states (:mod:`ionpulse.protocol`,
:mod:`ionpulse.seqlang`) carry the window from step to step and hand it
to the kernels, so neither reads the levels above it.

A :class:`StateVector` stores either its whole flat array or its
coefficients in the sector basis |n>|s_N>|D_k>: 2N amplitudes per Fock
level, every level stored, at flat index ``s * N + k``, where s is ion
N's state and D_k the normalised Dicke state of k excitations among ions
1 .. N-1.  Pulses on ion N and collective pi pulses never leave it, so
the five-pulse preparation runs on 2N(n_max + 1) amplitudes
(:func:`_sector_ground_state`).  The sector coefficient of D_k is
sqrt(C(N-1, k)) times the amplitude of each of its bit words.  At
N <= 2 the two bases coincide index for index.

The whole array is built by one function, :func:`_lift`, on the first
read of ``amplitudes`` or ``blocks``, and kept from then on, so a write
through either one is seen by every later reader.  Readers that need
only a few numbers (:meth:`StateVector._amplitude_at`, the norm,
:func:`fock_populations`) read the stored coefficients and never build
it.

Global phases are physical here: intermediate states are checked against
closed-form expressions that include their free-evolution phase factors,
so nothing is re-normalized or phase-fixed behind the caller's back.
Comparisons that should ignore a global phase go through :func:`fidelity`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "FRAME_R",
    "FRAME_R_PRIME",
    "NORM_TOL",
    "InputError",
    "SimulationError",
    "TrapParams",
    "Frame",
    "BasisIndex",
    "StateVector",
    "flat_index",
    "split_index",
    "ground_state",
    "dicke_extreme",
    "target_ghz",
    "fidelity",
    "excited_population",
    "excited_population_rows",
    "fock_populations",
    "levels_view",
    "populations",
    "check_memory",
]

FRAME_R = "R"
FRAME_R_PRIME = "Rprime"

#: Tolerance on |norm - 1| enforced after every state-changing operation.
NORM_TOL = 1e-12


class SimulationError(RuntimeError):
    """An operation violated one of the simulator's contracts."""


class InputError(ValueError):
    """A parameter outside its documented range: bad input, rejected before any work."""


def _require_finite(name: str, value: float, error: type[Exception] = InputError) -> None:
    """Reject NaN and infinities up front, naming the offending field or quantity."""
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TrapParams:
    """Static trap and drive parameters shared by a simulation run.

    n_ions:      number of two-level ions in the string (N >= 1).
    trap_freq:   angular frequency nu of the collective axial mode (rad/s).
    lamb_dicke:  Lamb-Dicke parameter eta along the trap axis.
    base_rabi:   carrier Rabi frequency Omega_0 (rad/s); fixes the overall
                 scale of every pulse duration.
    fock_cutoff: highest Fock level n_max kept in the state.  The standard
                 protocol only populates n = 1, but leave headroom: leakage
                 into the top level is treated as an error (see pulses).
    """

    n_ions: int
    trap_freq: float
    lamb_dicke: float
    base_rabi: float
    fock_cutoff: int = 4

    def __post_init__(self) -> None:
        for name in ("trap_freq", "lamb_dicke", "base_rabi"):
            _require_finite(name, getattr(self, name))
        if self.n_ions < 1:
            raise InputError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.fock_cutoff < 1:
            raise InputError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")
        if not (self.trap_freq > 0):
            raise InputError(f"trap_freq must be positive, got {self.trap_freq}")
        if self.lamb_dicke < 0:
            raise InputError(f"lamb_dicke must be >= 0, got {self.lamb_dicke}")
        if self.base_rabi < 0:
            raise InputError(f"base_rabi must be >= 0, got {self.base_rabi}")

    # Cached: every kernel call reads these to shape its views.
    @cached_property
    def n_levels(self) -> int:
        """Number of Fock levels kept, n_max + 1."""
        return self.fock_cutoff + 1

    @cached_property
    def n_configs(self) -> int:
        """Number of electronic configurations, 2**N."""
        return 1 << self.n_ions

    @cached_property
    def dim(self) -> int:
        return self.n_levels * self.n_configs


@dataclass(frozen=True)
class Frame:
    """Rotating frame the state is expressed in.

    ``R`` rotates at the electronic transition frequency omega_0, so the
    detuning is identically zero.  ``Rprime`` rotates at the drive
    frequency omega; ``detuning`` = omega_0 - omega is then picked up as
    an extra phase per excited ion during free evolution.
    ``reference_freq`` (omega_0 for R, omega for Rprime) is optional and
    never used by the dynamics; it is carried for reporting only.
    """

    tag: str = FRAME_R
    detuning: float = 0.0
    reference_freq: float | None = None

    def __post_init__(self) -> None:
        _require_finite("detuning", self.detuning)
        if self.tag not in (FRAME_R, FRAME_R_PRIME):
            raise InputError(f"frame tag must be {FRAME_R!r} or {FRAME_R_PRIME!r}, got {self.tag!r}")
        if self.tag == FRAME_R and self.detuning != 0.0:
            raise InputError("frame R has zero detuning by definition")


class BasisIndex(NamedTuple):
    """One joint basis state: electronic bit word plus Fock level."""

    ion_bits: int
    fock_n: int


def flat_index(params: TrapParams, ion_bits: int, fock_n: int) -> int:
    """Flat array position of |ion_bits>|fock_n> (Fock-major layout)."""
    if not 0 <= ion_bits < params.n_configs:
        raise ValueError(f"ion_bits {ion_bits} out of range for {params.n_ions} ions")
    if not 0 <= fock_n <= params.fock_cutoff:
        raise ValueError(f"fock_n {fock_n} out of range [0, {params.fock_cutoff}]")
    return fock_n * params.n_configs + ion_bits


def split_index(params: TrapParams, flat: int) -> BasisIndex:
    """Inverse of :func:`flat_index`."""
    if not 0 <= flat < params.dim:
        raise ValueError(f"flat index {flat} out of range [0, {params.dim})")
    return BasisIndex(ion_bits=flat % params.n_configs, fock_n=flat // params.n_configs)


def levels_view(amplitudes: np.ndarray, params: TrapParams) -> np.ndarray:
    """Writable (..., n_levels, width) view of amplitude rows of shape (..., n_levels * width).

    Leading axes are batch axes: every row is one state, and the pulse
    kernels and guards act on all rows at once.  The width is 2**N for
    rows of shape (..., dim) and 2N for sector rows.
    """
    return amplitudes.reshape(amplitudes.shape[:-1] + (params.n_levels, -1))


def _in_sector(amplitudes: np.ndarray, params: TrapParams) -> bool:
    """Whether rows hold every Fock level in the sector basis, 2N per level, rather than in 2**N configurations.

    The two widths differ from N = 3 up; below, the bases coincide and the rows count as configurations.
    """
    return amplitudes.shape[-1] != params.dim


def _ion_view(amplitudes: np.ndarray, params: TrapParams, ion: int) -> np.ndarray:
    """View (..., n_levels, high_bits, 2, low_bits) of (..., dim) rows with ion ``ion``'s bit (1-based) on axis -2.

    Sector rows address ion N alone, as (..., n_levels, 1, 2, N): s_N on axis -2, k on the last.
    """
    n = params.n_ions
    if _in_sector(amplitudes, params):
        if ion != n:
            raise ValueError(f"the sector basis addresses ion {n} alone, not ion {ion}")
        shape = (params.n_levels, 1, 2, n)
    else:
        bit = ion - 1
        shape = (params.n_levels, 1 << (n - 1 - bit), 2, 1 << bit)
    return amplitudes.reshape(amplitudes.shape[:-1] + shape)


def _fock_top(amplitudes: np.ndarray, params: TrapParams, top: int | None = None) -> int:
    """Highest Fock level holding a nonzero amplitude in any row (0 if none above 0 does).

    Lowers ``top`` (the cutoff when None; the levels above must hold exact zeros) while its
    level holds only zeros in every row, one read per level.  NaN counts as nonzero, -0.0 as zero.
    """
    levels = levels_view(amplitudes, params)
    top = params.fock_cutoff if top is None else top
    while top > 0 and not levels[..., top, :].any():
        top -= 1
    return top


def populations(amplitudes: np.ndarray) -> np.ndarray:
    """Sum of |a|^2 over the last axis of a complex array, for any leading axes.

    One ``np.einsum`` of re^2 + im^2 over the float64 view: no BLAS call
    (no idle BLAS thread is woken) and no temporary the size of the
    input.  The unit axis lets the view take a strided last axis.  A NaN
    amplitude gives a NaN population.
    """
    parts = amplitudes[..., None].view(np.float64)
    return np.einsum("...ij,...ij->...", parts, parts)


@lru_cache(maxsize=1)
def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _count_text(count: int) -> str:
    """``count`` in decimal below 2**64, else as a power of two (a float of it overflows from 2**1024, a str past 4300 digits)."""
    return str(count) if count < 2**64 else f"at least 2^{count.bit_length() - 1}"


def check_memory(n_amplitudes: int) -> None:
    """Raise before allocating ``n_amplitudes`` complex amplitudes that would not fit in physical memory."""
    needed = n_amplitudes * np.dtype(np.complex128).itemsize
    available = _physical_memory_bytes()
    if available is not None and needed > available:
        gib = f" ({needed / 2**30:.4g} GiB)" if needed < 2**64 else ""
        raise SimulationError(
            f"{_count_text(n_amplitudes)} amplitudes need {_count_text(needed)} B{gib}, more than the "
            f"{available} B ({available / 2**30:.4g} GiB) of physical memory"
        )


def _zero_amplitudes(params: TrapParams) -> np.ndarray:
    """A zeroed state-sized array, after the memory check."""
    check_memory(params.dim)
    return np.zeros(params.dim, dtype=np.complex128)


@lru_cache(maxsize=32)
def _popcounts(n_ions: int, sector: bool = False) -> np.ndarray:
    """Number of excited ions per configuration index, as uint8 (1 B each).

    For every bit word 0 .. 2**N - 1, or with ``sector`` k + s for every
    sector index s * N + k.  Unsigned: a caller that forms
    N - 2 popcount(b) must do it in a signed type, or it wraps (N=3,
    popcount 3 gives 253 in uint8).
    """
    if sector:
        s, k = np.divmod(np.arange(2 * n_ions), n_ions)
        return (s + k).astype(np.uint8)
    return np.bitwise_count(np.arange(1 << n_ions))


@lru_cache(maxsize=32)
def _dicke_scale(n_ions: int) -> np.ndarray:
    """1/sqrt(C(N-1, k)) per sector index s * N + k, as a (2N, 1) read-only column: a word's share of its Dicke coefficient."""
    shares = [1.0 / math.sqrt(math.comb(n_ions - 1, k)) for k in range(n_ions)]
    column = np.array(shares * 2)[:, None]
    column.flags.writeable = False
    return column


def _word_amplitudes(levels: np.ndarray, n_ions: int) -> np.ndarray:
    """Sector coefficients (..., 2N) as the amplitude of each bit word of their Dicke state.

    The real and imaginary parts are scaled apart, so a zero keeps its
    sign and a coefficient with C(N-1, k) = 1 keeps its bits.
    """
    parts = levels[..., None].view(np.float64) * _dicke_scale(n_ions)
    return parts.view(np.complex128)[..., 0]


@lru_cache(maxsize=4)
def _sector_words(n_ions: int) -> tuple[np.ndarray, np.ndarray]:
    """Every bit word grouped by its sector index: the words of index f are ``words[bounds[f] : bounds[f + 1]]``.

    Word b has the index s * (N - 1) + popcount(b), s its top bit.
    """
    index = (np.arange(1 << n_ions) >> (n_ions - 1)).astype(np.uint16) * (n_ions - 1) + _popcounts(n_ions)
    words = np.argsort(index, kind="stable")  # a radix sort on 16-bit keys
    bounds = np.concatenate(([0], np.cumsum(np.bincount(index, minlength=2 * n_ions))))
    words.flags.writeable = bounds.flags.writeable = False
    return words, bounds


def _lift(levels: np.ndarray, params: TrapParams) -> np.ndarray:
    """The whole flat array of the sector coefficients ``levels``, shape (n_levels, 2N).

    A coefficient is written, as :func:`_word_amplitudes`, to every bit
    word of its Dicke state; only coefficients with a bit set (NaN and
    -0.0 included) are written, so the cost is the words they cover, not
    the state, and the rest stays +0.0.
    """
    amplitudes = _zero_amplitudes(params)
    whole = levels_view(amplitudes, params)
    words, bounds = _sector_words(params.n_ions)
    scaled = _word_amplitudes(levels, params.n_ions)
    for n, f in zip(*np.nonzero(levels.view(np.uint64).reshape(levels.shape + (2,)).any(axis=-1))):
        whole[n, words[bounds[f] : bounds[f + 1]]] = scaled[n, f]
    return amplitudes


class StateVector:
    """Complex amplitudes over the joint ion-motion basis.

    A mutable value type: pulse operations update ``amplitudes`` and
    ``clock`` in place and return the same object.  Use :meth:`copy`
    before branching, e.g. one clone per point of a parameter scan.
    ``clock`` is the absolute time since the common phase origin t = 0
    and never decreases.  A state may store its sector coefficients
    instead of its whole array (see the module docstring) until that
    array is read.
    """

    __slots__ = ("_amplitudes", "_levels", "params", "frame", "clock")

    def __init__(
        self,
        amplitudes: np.ndarray,
        params: TrapParams,
        frame: Frame,
        clock: float = 0.0,
    ) -> None:
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (params.dim,):
            raise ValueError(
                f"amplitude array has shape {amplitudes.shape}, expected ({params.dim},)"
            )
        self.amplitudes = amplitudes
        self.params = params
        self.frame = frame
        self.clock = float(clock)

    @classmethod
    def _sector(cls, levels: np.ndarray, params: TrapParams, frame: Frame, clock: float) -> "StateVector":
        """A state that stores the sector coefficients ``levels``, shape (n_levels, 2N)."""
        state = cls.__new__(cls)
        state._amplitudes, state._levels = None, levels
        state.params, state.frame, state.clock = params, frame, clock
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """The flat (dim,) amplitude array, writable.

        A sector-stored state builds it on the first read (:func:`_lift`).
        From then on the state holds that array alone.
        """
        if self._levels is not None:
            self.amplitudes = _lift(self._levels, self.params)
        return self._amplitudes

    @amplitudes.setter
    def amplitudes(self, amplitudes: np.ndarray) -> None:
        self._amplitudes, self._levels = amplitudes, None

    def _rows(self) -> np.ndarray:
        """The flat amplitudes in the stored basis, for the pulse kernels: 2N(n_max + 1) sector coefficients or the whole array."""
        return self._amplitudes if self._levels is None else self._levels.reshape(-1)

    def copy(self) -> "StateVector":
        """An equal, independent state that stores a byte copy of what this one stores: its whole array or its sector coefficients."""
        if self._levels is None:
            return StateVector(self._amplitudes.copy(), self.params, self.frame, self.clock)
        return StateVector._sector(self._levels.copy(), self.params, self.frame, self.clock)

    @property
    def blocks(self) -> np.ndarray:
        """Writable (n_levels, 2**N) view: one row per Fock level."""
        return levels_view(self.amplitudes, self.params)

    def _amplitude_at(self, flat: int) -> np.complex128:
        """The amplitude at a flat index, read from what is stored: the whole array is not built.

        In the sector it is the coefficient of the word's Dicke state
        times 1/sqrt(C(N-1, k)).
        """
        if self._levels is None:
            return self._amplitudes[flat]
        n_ions = self.params.n_ions
        fock_n, bits = divmod(flat, self.params.n_configs)
        index = (bits >> (n_ions - 1)) * (n_ions - 1) + bits.bit_count()
        return _word_amplitudes(self._levels[fock_n], n_ions)[index]

    def amplitude(self, ion_bits: int, fock_n: int) -> complex:
        return complex(self._amplitude_at(flat_index(self.params, ion_bits, fock_n)))

    def norm(self) -> float:
        """Root of the summed populations of what is stored (the whole array is not built)."""
        return math.sqrt(populations(self._rows()))

    def to_dump(self) -> dict:
        """JSON-ready dict in the documented flat order (fock-major)."""
        return {
            "n_ions": self.params.n_ions,
            "n_max": self.params.fock_cutoff,
            "frame": {
                "tag": self.frame.tag,
                "detuning": self.frame.detuning,
                "reference_freq": self.frame.reference_freq,
            },
            "clock": self.clock,
            "amplitudes": self.amplitudes[:, None].view(np.float64).tolist(),  # [re, im] pairs
        }

    def dump_json(self) -> str:
        return json.dumps(self.to_dump())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateVector(n_ions={self.params.n_ions}, n_max={self.params.fock_cutoff}, "
            f"frame={self.frame.tag}, clock={self.clock!r}, norm={self.norm():.12f})"
        )


def _default_frame(frame: Frame | None) -> Frame:
    return frame if frame is not None else Frame(FRAME_R)


def ground_state(params: TrapParams, frame: Frame | None = None) -> StateVector:
    """All ions in |g>, motion cooled to |0>, clock at the phase origin."""
    amplitudes = _zero_amplitudes(params)
    amplitudes[flat_index(params, 0, 0)] = 1.0
    return StateVector(amplitudes, params, _default_frame(frame), clock=0.0)


def _sector_ground_state(params: TrapParams, frame: Frame | None = None) -> StateVector:
    """:func:`ground_state` stored in the sector basis: 2N(n_max + 1) amplitudes."""
    levels = np.zeros((params.n_levels, 2 * params.n_ions), dtype=np.complex128)
    levels[0, 0] = 1.0
    return StateVector._sector(levels, params, _default_frame(frame), 0.0)


def dicke_extreme(
    params: TrapParams,
    which: str,
    fock_n: int = 0,
    frame: Frame | None = None,
) -> StateVector:
    """Extremal collective state |J,-J> ("lowest") or |J,J> ("highest").

    These are the only two Dicke states the protocol visits: all ions in
    |g> or all ions in |e>, paired with the Fock level ``fock_n``.
    """
    if which == "lowest":
        bits = 0
    elif which == "highest":
        bits = params.n_configs - 1
    else:
        raise ValueError(f"which must be 'lowest' or 'highest', got {which!r}")
    amplitudes = _zero_amplitudes(params)
    amplitudes[flat_index(params, bits, fock_n)] = 1.0
    return StateVector(amplitudes, params, _default_frame(frame), clock=0.0)


def target_ghz(params: TrapParams, phi: float = 0.0, frame: Frame | None = None) -> StateVector:
    """Maximally entangled target (|g..g> + e^{i phi}|e..e>)/sqrt(2) with motion in |0>."""
    amplitudes = _zero_amplitudes(params)
    amplitudes[flat_index(params, 0, 0)] = 1.0 / math.sqrt(2.0)
    amplitudes[flat_index(params, params.n_configs - 1, 0)] = np.exp(1j * phi) / math.sqrt(2.0)
    return StateVector(amplitudes, params, _default_frame(frame), clock=0.0)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to a global phase of either state.

    ``np.einsum`` sums over the float64 views, as in :func:`populations`: no
    BLAS call and no temporary the size of a state.
    """
    if a.params != b.params:
        raise ValueError("fidelity requires states with identical trap parameters")
    if a.frame != b.frame:
        raise ValueError("fidelity requires states expressed in the same frame")
    pa, pb = (s.amplitudes[:, None].view(np.float64) for s in (a, b))
    real = np.einsum("ij,ij->", pa, pb)
    imag = np.einsum("i,i->", pa[:, 0], pb[:, 1]) - np.einsum("i,i->", pa[:, 1], pb[:, 0])
    return float(real * real + imag * imag)


def excited_population(state: StateVector, ion_index: int) -> float:
    """Probability of finding ion ``ion_index`` (1-based) in |e>."""
    return float(excited_population_rows(state.amplitudes, state.params, ion_index))


def excited_population_rows(amplitudes: np.ndarray, params: TrapParams, ion_index: int) -> np.ndarray:
    """:func:`excited_population` of every row of an (..., dim) amplitude array.

    Each row is reduced on its own, so a row gives the same bits whether
    it is read alone or inside a batch.
    """
    n = params.n_ions
    if not 1 <= ion_index <= n:
        raise ValueError(f"ion_index must be in [1, {n}], got {ion_index}")
    excited = _ion_view(amplitudes, params, ion_index)[..., 1, :]
    return populations(excited).sum(axis=(-2, -1))


def fock_populations(state: StateVector) -> np.ndarray:
    """Marginal distribution over the Fock levels 0 .. n_max, read from what is stored (the whole array is not built)."""
    return populations(levels_view(state._rows(), state.params))
