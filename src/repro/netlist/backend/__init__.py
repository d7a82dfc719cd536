"""Gate-level simulation backends behind one interface.

Two implementations of :class:`SimBackend`:

- ``"interpreted"`` -- the per-gate dict interpreter
  (:class:`InterpretedBackend`), one lane per instance, kept as the
  bit-exact reference;
- :class:`PackedBackend` -- the levelized lane-packed generator, which
  specializes one straight-line kernel per fault set and picks its
  word type by lane count (Python ints up to
  ``INT_EMITTER_MAX_LANES`` lanes, NumPy ``uint64`` rows above).  It is
  registered twice, differing only in lane capacity: ``"compiled"``
  (:class:`CompiledBackend`, 64 lanes, one fault-campaign chunk) and
  ``"vector"`` (:class:`VectorBackend`, 65,536 lanes, a whole wafer).

Consumers (cross-checks, fault campaigns, toggle studies, the CLI)
select a backend by name; ``None`` means the process-wide default set
by :func:`configure` (see the ``--backend`` CLI flag).  See
``docs/GATESIM.md`` for lane packing, levelization and the emitter
crossover.
"""

from repro.netlist.backend.base import (
    BACKENDS,
    SimBackend,
    configure,
    default_backend,
    lane_fault_list,
    make_backend,
    resolve_backend,
)
from repro.netlist.backend.interpreted import InterpretedBackend
from repro.netlist.backend.packed import (
    FULL_MASK,
    INT_EMITTER_MAX_LANES,
    VECTOR_MAX_LANES,
    WORD_LANES,
    CompiledBackend,
    PackedBackend,
    VectorBackend,
)
from repro.netlist.levelize import CombinationalLoopError, levelize

__all__ = [
    "BACKENDS",
    "CombinationalLoopError",
    "CompiledBackend",
    "FULL_MASK",
    "INT_EMITTER_MAX_LANES",
    "InterpretedBackend",
    "PackedBackend",
    "SimBackend",
    "VECTOR_MAX_LANES",
    "VectorBackend",
    "WORD_LANES",
    "configure",
    "default_backend",
    "lane_fault_list",
    "levelize",
    "make_backend",
    "resolve_backend",
]
