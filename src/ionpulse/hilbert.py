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
to the kernels, so neither reads the levels above it; the next window
comes from the populations the step's guard read.

A :class:`StateVector` stores either its whole flat array or its
coefficients in the sector basis |n>|s_N>|D_k>: 2N amplitudes per Fock
level, every level stored, at flat index ``s * N + k``, where s is ion
N's state and D_k the normalised Dicke state of k excitations among ions
1 .. N-1.  :func:`ground_state` is stored there, after a memory check of
its 2N(n_max + 1) amplitudes alone, and waits, pulses on ion N and
collective pi pulses never leave it, so the five-pulse preparation runs
on 2N(n_max + 1) amplitudes.  The sector coefficient of D_k is
sqrt(C(N-1, k)) times the amplitude of each of its bit words.  At
N <= 2 the two bases coincide index for index.

The whole array is built by one function, :func:`_lift`, a memory check
and one gather, on the first read of ``amplitudes`` or ``blocks``, and
kept from then on, so a write through either one is seen by every later
reader.  Readers that need only a few numbers
(:meth:`StateVector._amplitude_at`, the norm, :func:`fock_populations`,
:func:`excited_population` of ion N) read the stored coefficients and
never build it.  A dump
(:meth:`StateVector.dump_json`) is ``json.dumps(to_dump())`` written by
:func:`_pairs_json`: an exactly zero pair takes a constant string by its
sign bits and only nonzero pairs are formatted, so no Python list is made
per amplitude.  A sector state's text is gathered from its coefficients'
texts as :func:`_lift` gathers the values, so the dump builds no whole
array either; its memory check comes before the text.

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

import numpy as np

__all__ = [
    "FRAME_R",
    "FRAME_R_PRIME",
    "NORM_TOL",
    "InputError",
    "SimulationError",
    "TrapParams",
    "Frame",
    "StateVector",
    "flat_index",
    "ground_state",
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
        if self.reference_freq is not None:
            _require_finite("reference_freq", self.reference_freq)
        if self.tag not in (FRAME_R, FRAME_R_PRIME):
            raise InputError(f"frame tag must be {FRAME_R!r} or {FRAME_R_PRIME!r}, got {self.tag!r}")
        if self.tag == FRAME_R and self.detuning != 0.0:
            raise InputError("frame R has zero detuning by definition")


def flat_index(params: TrapParams, ion_bits: int, fock_n: int) -> int:
    """Flat array position of |ion_bits>|fock_n> (Fock-major layout)."""
    if not 0 <= ion_bits < params.n_configs:
        raise ValueError(f"ion_bits {ion_bits} out of range for {params.n_ions} ions")
    if not 0 <= fock_n <= params.fock_cutoff:
        raise ValueError(f"fock_n {fock_n} out of range [0, {params.fock_cutoff}]")
    return fock_n * params.n_configs + ion_bits


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


def _fock_top(amplitudes: np.ndarray, params: TrapParams, known: np.ndarray | None = None) -> int:
    """Highest Fock level holding a nonzero amplitude in any row (0 if none above 0 does).

    Lowers a bound while its level holds only zeros in every row, one read per level: the
    cutoff, or with ``known``, the rows' per-level populations of levels 0 .. k, the level k
    (the levels above must hold exact zeros).  NaN counts as nonzero, -0.0 as zero.  ``known``
    decides every level whose population is not 0 (NaN included) without a read: only a level
    of population exactly 0 is read, as its amplitudes may be nonzero (1e-300 squares to 0).
    """
    levels = levels_view(amplitudes, params)
    top = params.fock_cutoff
    if known is not None:
        top = known.shape[-1] - 1
        known = known if known.ndim == 1 else np.maximum.reduce(known.reshape(-1, top + 1), 0, initial=0.0)  # NaN propagates
    while top > 0 and (known is None or known[top] == 0) and not levels[..., top, :].any():
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


def _count_text(count: int, shift: int = 0) -> str:
    """``count << shift`` in decimal below 2**64, else as a power of two, read from bit lengths.

    A float of the count overflows from 2**1024, a str past 4300 digits, and the int itself takes
    ``shift`` bits: 125 MB at 2**(10**9).
    """
    bits = count.bit_length() + shift
    return str(count << shift) if bits <= 64 else f"at least 2^{bits - 1}"


def check_memory(n_amplitudes: int, extra_bytes: int = 0, extra: str = "index", n_ions: int = 0) -> None:
    """Raise before allocating ``n_amplitudes << n_ions`` complex amplitudes, and ``extra_bytes`` of ``extra`` beside them, that would not fit in physical memory.

    A state passes its level count and N, so 2**N is formed only when the state may fit.  From N = 64
    up, and from the bit length of physical memory (and of ``extra_bytes``) up, 2**N amplitudes alone
    exceed memory and 2**64 B: the check is decided, and its message worded, from bit lengths.
    """
    available = _physical_memory_bytes()
    if available is None:
        return
    n_amplitudes, extra_bytes = int(n_amplitudes), int(extra_bytes)  # a NumPy count has no bit_length
    size = n_amplitudes * np.dtype(np.complex128).itemsize
    if n_ions < max(64, available.bit_length(), extra_bytes.bit_length()) or not size:
        n_amplitudes, size, n_ions = n_amplitudes << n_ions, (size << n_ions) + extra_bytes, 0
        if size <= available:
            return
    # Otherwise extra_bytes < 2**n_ions leaves the bit length of size << n_ions as it is.
    gib = f" ({size / 2**30:.4g} GiB)" if not n_ions and size < 2**64 else ""
    beside = f" and {_count_text(extra_bytes)} B of {extra}" if extra_bytes else ""
    raise SimulationError(
        f"{_count_text(n_amplitudes, n_ions)} amplitudes{beside} need {_count_text(size, n_ions)} B{gib}, more than the "
        f"{available} B ({available / 2**30:.4g} GiB) of physical memory"
    )


@lru_cache(maxsize=32)
def _popcounts(n_ions: int, sector: bool = False) -> np.ndarray:
    """Number of excited ions per configuration index, unsigned: uint8 (1 B each) per word, the smallest type that holds N in the sector.

    For every bit word 0 .. 2**N - 1, or with ``sector`` k + s for every
    sector index s * N + k (up to N: uint16 from N = 256, uint32 from
    N = 65536).  A caller that forms N - 2 popcount(b) must do it in a
    signed type, or it wraps (N=3, popcount 3 gives 253 in uint8).
    """
    if sector:
        s, k = np.divmod(np.arange(2 * n_ions), n_ions)
        return (s + k).astype(np.min_scalar_type(n_ions))
    return np.bitwise_count(np.arange(1 << n_ions))


@lru_cache(maxsize=256)
def _dicke_share(n_ions: int, k: int) -> float:
    """1/sqrt(C(N-1, k)) as a Python float: a word's share of its Dicke coefficient, formed for one k at a time."""
    return 1.0 / math.sqrt(math.comb(n_ions - 1, k))


@lru_cache(maxsize=32)
def _dicke_scale(n_ions: int) -> np.ndarray:
    """:func:`_dicke_share` per sector index s * N + k, as a (2N, 1) read-only column."""
    column = np.array([_dicke_share(n_ions, k) for k in range(n_ions)] * 2)[:, None]
    column.flags.writeable = False
    return column


def _word_amplitudes(levels: np.ndarray, n_ions: int) -> np.ndarray:
    """Sector coefficients (..., 2N) as the amplitude of each bit word of their Dicke state.

    The real and imaginary parts are scaled apart, so a zero keeps its
    sign and a coefficient with C(N-1, k) = 1 keeps its bits.
    """
    parts = levels[..., None].view(np.float64) * _dicke_scale(n_ions)
    return parts.view(np.complex128)[..., 0]


@lru_cache(maxsize=8)
def _word_index(n_ions: int) -> np.ndarray:
    """The sector index s * (N - 1) + popcount(b) of every bit word b, s its top bit, as intp.

    Shared by every call, so callers must not write to it.  It is left
    writeable because ``np.take`` copies a read-only index on each call.
    Built from the popcounts with no temporary, so a cold call holds at
    most the index (8 B per word) and the cached popcounts (1 B).
    """
    index = _popcounts(n_ions).astype(np.intp)
    index[1 << (n_ions - 1) :] += n_ions - 1  # s = 1 on the upper half of the words
    return index


def _lift(levels: np.ndarray, params: TrapParams) -> np.ndarray:
    """The whole flat array of the sector coefficients ``levels``, shape (n_levels, 2N), after the memory check.

    Every bit word gathers its Dicke state's coefficient as
    :func:`_word_amplitudes` scales it.  The index is intp and the mode
    does not buffer, so ``np.take`` allocates nothing beside the result.
    The check counts what a cold lift builds beside it, cached or not:
    the word index and its popcounts, 9 B per word.
    """
    check_memory(params.dim, 9 * params.n_configs)
    amplitudes = np.empty(params.dim, dtype=np.complex128)
    scaled = _word_amplitudes(levels, params.n_ions)
    np.take(scaled, _word_index(params.n_ions), axis=1, out=levels_view(amplitudes, params), mode="clip")
    return amplitudes


#: The JSON text of an exactly zero [re, im] pair, brackets left out, by its sign bits: re's 1, im's 2.
_ZERO_PAIRS = np.array(["0.0, 0.0", "-0.0, 0.0", "0.0, -0.0", "-0.0, -0.0"], dtype=object)


def _pairs_json(amplitudes: np.ndarray, prefix: str, suffix: str, words: np.ndarray | None = None) -> str:
    """``prefix + json.dumps(amplitudes[:, None].view(np.float64).tolist()) + suffix``, the same bytes as one str.

    An exactly zero pair (-0.0 included) takes its text from :data:`_ZERO_PAIRS`, so no Python
    list is made for it; only the nonzero pairs (NaN included) are formatted, by ``json.dumps``.
    The pieces are joined by "], [", so the result is the one str the join builds.  With the word
    index ``words``, ``amplitudes`` are sector coefficients (n_levels, 2N) as :func:`_word_amplitudes`
    scales them, and their texts are gathered as :func:`_lift` gathers the values: the whole array's
    text, without the array.
    """
    nonzero = amplitudes != 0
    parts = amplitudes[..., None].view(np.float64)
    if words is None and nonzero.all():  # no zero pair, or no pair at all
        return prefix + json.dumps(parts.tolist(), check_circular=False) + suffix
    pieces = _ZERO_PAIRS[(np.signbit(amplitudes.imag).view(np.uint8) << 1) | np.signbit(amplitudes.real)]
    if nonzero.any():
        pieces[nonzero] = json.dumps(parts[nonzero].tolist(), check_circular=False)[2:-2].split("], [")
    if words is not None:
        pieces = np.take(pieces, words, axis=1).reshape(-1)
    pieces[0] = prefix + "[[" + pieces[0]
    pieces[-1] += "]]" + suffix
    return "], [".join(pieces.tolist())


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
        """A state that stores the sector coefficients ``levels``, shape (n_levels, 2N), flat as the kernels read them."""
        state = cls.__new__(cls)
        state._amplitudes, state._levels = None, levels.reshape(-1)
        state.params, state.frame, state.clock = params, frame, clock
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """The flat (dim,) amplitude array, writable.

        A sector-stored state builds it on the first read (:func:`_lift`).
        From then on the state holds that array alone.
        """
        if self._levels is not None:
            self.amplitudes = _lift(levels_view(self._levels, self.params), self.params)
        return self._amplitudes

    @amplitudes.setter
    def amplitudes(self, amplitudes: np.ndarray) -> None:
        self._amplitudes, self._levels = amplitudes, None

    def _rows(self) -> np.ndarray:
        """The flat amplitudes in the stored basis, for the pulse kernels: 2N(n_max + 1) sector coefficients or the whole array."""
        return self._amplitudes if self._levels is None else self._levels

    def copy(self) -> "StateVector":
        """An equal, independent state that stores a byte copy of what this one stores: its whole array or its sector coefficients."""
        if self._levels is None:
            return StateVector(self._amplitudes.copy(), self.params, self.frame, self.clock)
        return StateVector._sector(self._levels.copy(), self.params, self.frame, self.clock)

    @property
    def blocks(self) -> np.ndarray:
        """Writable (n_levels, 2**N) view: one row per Fock level."""
        return levels_view(self.amplitudes, self.params)

    def _amplitude_at(self, flat: int) -> complex:
        """The amplitude at a flat index as a Python complex, read from what is stored: the whole array is not built.

        In the sector it is the coefficient of the word's Dicke state
        times 1/sqrt(C(N-1, k)), its two parts scaled apart as
        :func:`_word_amplitudes` scales them, in Python floats.
        """
        if self._levels is None:
            return self._amplitudes.item(flat)
        n_ions = self.params.n_ions
        fock_n, bits = divmod(flat, self.params.n_configs)
        index = (bits >> (n_ions - 1)) * (n_ions - 1) + bits.bit_count()
        coefficient, scale = self._levels.item(2 * n_ions * fock_n + index), _dicke_share(n_ions, index % n_ions)
        return complex(coefficient.real * scale, coefficient.imag * scale)

    def amplitude(self, ion_bits: int, fock_n: int) -> complex:
        return self._amplitude_at(flat_index(self.params, ion_bits, fock_n))

    def norm(self) -> float:
        """Root of the summed populations of what is stored (the whole array is not built)."""
        return math.sqrt(populations(self._rows()))

    def _dump_header(self) -> dict:
        """The dump's fields before its amplitudes, in order, read by :meth:`to_dump` and :meth:`dump_json`."""
        frame = {"tag": self.frame.tag, "detuning": self.frame.detuning, "reference_freq": self.frame.reference_freq}
        return {"n_ions": self.params.n_ions, "n_max": self.params.fock_cutoff, "frame": frame, "clock": self.clock}

    def to_dump(self) -> dict:
        """JSON-ready dict in the documented flat order (fock-major)."""
        return {**self._dump_header(), "amplitudes": self.amplitudes[:, None].view(np.float64).tolist()}  # [re, im] pairs

    def _nonzero_pairs(self) -> int:
        """How many amplitudes of the whole array may be nonzero, from what is stored: a sector coefficient of D_k fills C(N-1, k) words."""
        if self._levels is None:
            return np.count_nonzero(self._amplitudes)
        n = self.params.n_ions
        return sum(math.comb(n - 1, i % n) for i in self._levels.nonzero()[0].tolist())  # k of flat index f * 2N + s * N + k

    def dump_json(self) -> str:
        """``json.dumps(self.to_dump())``, the same bytes, built by :func:`_pairs_json` after one memory check.

        A sector state stays in the sector.  The check counts the whole array (and a sector state's
        word index), though the dump builds no whole array, the encoder's 24 B per amplitude and
        400 B per nonzero one, and the text twice (a caller's splice copies it), bounded by 14 chars per
        zero pair and 54 per nonzero one (two 24-char floats) with their separators.
        """
        head = json.dumps(self._dump_header(), check_circular=False)[:-1] + ', "amplitudes": '
        nonzero, dim = self._nonzero_pairs(), self.params.dim
        text = len(head) + 14 * (dim - nonzero) + 54 * nonzero + 5
        index = 0 if self._levels is None else 9 * self.params.n_configs
        check_memory(dim, index + 24 * dim + 400 * nonzero + 2 * text, "dump")
        if self._levels is None:
            return _pairs_json(self._amplitudes, head, "}")
        n_ions = self.params.n_ions
        return _pairs_json(_word_amplitudes(levels_view(self._levels, self.params), n_ions), head, "}", _word_index(n_ions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateVector(n_ions={self.params.n_ions}, n_max={self.params.fock_cutoff}, "
            f"frame={self.frame.tag}, clock={self.clock!r}, norm={self.norm():.12f})"
        )


_FRAME_R = Frame(FRAME_R)  # frozen, so every default-frame state can share it


def _default_frame(frame: Frame | None) -> Frame:
    return frame if frame is not None else _FRAME_R


def ground_state(params: TrapParams, frame: Frame | None = None) -> StateVector:
    """All ions in |g>, motion cooled to |0>, clock at the phase origin: stored in the sector basis, 2N(n_max + 1) amplitudes.

    Its memory check counts those amplitudes alone; a reader of the whole array checks its own (:func:`_lift`).
    """
    check_memory(2 * params.n_levels * params.n_ions)
    levels = np.zeros(2 * params.n_levels * params.n_ions, dtype=np.complex128)
    levels[0] = 1.0
    return StateVector._sector(levels, params, _default_frame(frame), 0.0)


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
    """Probability of finding ion ``ion_index`` (1-based) in |e>, read from the stored rows for ion N, which the sector addresses."""
    rows = state._rows() if ion_index == state.params.n_ions else state.amplitudes
    return float(excited_population_rows(rows, state.params, ion_index))


def excited_population_rows(amplitudes: np.ndarray, params: TrapParams, ion_index: int) -> np.ndarray:
    """:func:`excited_population` of every row of an (..., dim) amplitude array, or of ion N on sector rows.

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
