"""Simulator for entangling pulse sequences on N trapped ions.

Models N two-level ions coupled to one quantized collective vibrational
mode, applies carrier, red-sideband, and dispersive laser pulses with
exact phase bookkeeping, and runs the built-in five-pulse preparation of
(|g..g> + |e..e>)/sqrt(2) plus the detuned Ramsey scheme whose fringe
oscillates as cos(N Delta T).  A small line-oriented language (.pseq)
describes custom pulse programs; the ``ionpulse`` command exposes all of
it from the shell.
"""

from .hilbert import (
    FRAME_R,
    FRAME_R_PRIME,
    Frame,
    InputError,
    SimulationError,
    StateVector,
    TrapParams,
    excited_population,
    fidelity,
    flat_index,
    fock_populations,
    ground_state,
)
from .pulses import (
    LeakageError,
    PulseError,
    PulseKind,
    PulseMode,
    PulseSpec,
    apply_pulse,
    dense_matrix,
    free_evolve,
    pulse_duration,
)
from .protocol import (
    PreparationReport,
    RamseyConfig,
    RamseyResult,
    RamseySample,
    best_ghz_fidelity,
    prepare_max_entangled,
    preparation_sequence,
    ramsey_probability,
    ramsey_run,
    ramsey_scan,
    reversed_sequence,
    trajectory_reference,
    verify_trajectory,
)
from .seqlang import (
    ParseDiagnostic,
    SequenceError,
    SequenceProgram,
    execute,
    format_program,
    parse,
)

__version__ = "0.1.0"

__all__ = [
    "FRAME_R",
    "FRAME_R_PRIME",
    "Frame",
    "InputError",
    "SimulationError",
    "StateVector",
    "TrapParams",
    "excited_population",
    "fidelity",
    "flat_index",
    "fock_populations",
    "ground_state",
    "LeakageError",
    "PulseError",
    "PulseKind",
    "PulseMode",
    "PulseSpec",
    "apply_pulse",
    "dense_matrix",
    "free_evolve",
    "pulse_duration",
    "PreparationReport",
    "RamseyConfig",
    "RamseyResult",
    "RamseySample",
    "best_ghz_fidelity",
    "prepare_max_entangled",
    "preparation_sequence",
    "ramsey_probability",
    "ramsey_run",
    "ramsey_scan",
    "reversed_sequence",
    "trajectory_reference",
    "verify_trajectory",
    "ParseDiagnostic",
    "SequenceError",
    "SequenceProgram",
    "execute",
    "format_program",
    "parse",
    "__version__",
]
