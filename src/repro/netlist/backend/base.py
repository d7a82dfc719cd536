"""The :class:`SimBackend` interface and backend registry.

A backend evaluates a gate-level netlist over one or more *lanes*.  A
lane is one independent simulation of the design: same stimulus, but
its own injected stuck-at faults and its own toggle counts.  The
interpreted backend runs one lane per instance (the bit-exact
reference); the packed backends (``compiled`` and ``vector``, one
generator that differs only in lane capacity) pack many lanes into the
bits of lane words, so one settle pass advances a whole fault campaign
chunk or every die on a wafer at once.

Consumers address backends by name (``"interpreted"`` /
``"compiled"`` / ``"vector"``) through :func:`make_backend`; ``None``
resolves to the process-wide default installed by :func:`configure`
(the CLI's ``--backend`` flag lands there).
"""

from abc import ABC, abstractmethod

_DEFAULT_BACKEND = "compiled"
_default_name = _DEFAULT_BACKEND

#: name -> backend class; filled in by repro.netlist.backend.__init__.
BACKENDS = {}


def register_backend(cls):
    """Class decorator adding a backend implementation to the registry."""
    BACKENDS[cls.name] = cls
    return cls


def configure(default=None):
    """Install the process-wide default backend name (CLI ``--backend``).

    Returns the active default.  ``configure()`` with no argument resets
    to the library default ("compiled").
    """
    global _default_name
    name = default or _DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    _default_name = name
    return _default_name


def default_backend():
    """Name of the process-wide default backend."""
    return _default_name


def resolve_backend(name):
    """Map a backend spec (name or None) to a registered class."""
    name = name or _default_name
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None


def make_backend(name, netlist, lanes=1):
    """Instantiate a backend over ``netlist`` with ``lanes`` fault lanes."""
    cls = resolve_backend(name)
    return cls(netlist, lanes=lanes)


def lane_fault_list(entry):
    """Normalize one lane's fault spec to a list of (gate, stuck) pairs.

    A lane entry is ``None`` (healthy lane), a single
    ``(gate_name, stuck_value)`` pair, or an iterable of such pairs --
    the multi-fault form encodes one die's whole defect draw in one
    lane.  All backends accept all three forms.

    Pairs apply in order, so when one lane names the same gate twice
    (say stuck-at-1, then stuck-at-0) the last pair wins -- the
    interpreted reference's ``inject_fault`` semantics.
    """
    if entry is None:
        return []
    entry = list(entry)
    if entry and isinstance(entry[0], str):
        if len(entry) != 2:
            raise ValueError(f"malformed fault entry {entry!r}")
        return [(entry[0], entry[1])]
    return [(gate, stuck) for gate, stuck in entry]


class SimBackend(ABC):
    """Multi-lane gate-level evaluation of one netlist.

    Lane semantics: inputs and clock edges are shared by every lane;
    faults and observed state (net values, toggle counts, mismatches)
    are per-lane.  ``lanes`` is fixed at construction and bounded by
    ``max_lanes``; campaign drivers chunk their fault lists accordingly.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Largest lane count one instance supports.
    max_lanes = 1

    @property
    @abstractmethod
    def lanes(self):
        """Number of active lanes in this instance."""

    @property
    @abstractmethod
    def cycles(self):
        """Clock cycles stepped so far (identical across lanes)."""

    # -- stimulus ------------------------------------------------------

    @abstractmethod
    def set_inputs(self, assignments):
        """Assign primary inputs ({net: 0/1} or {bus_stem: int}),
        broadcast to every lane.  Rejects out-of-range values."""

    @abstractmethod
    def set_fault_lanes(self, faults):
        """Install per-lane stuck-at faults and re-settle.

        ``faults`` is a sequence of at most ``lanes`` entries, each
        ``None`` (healthy lane), a ``(gate_name, stuck_value)`` pair,
        or an iterable of such pairs (a multi-defect die occupies one
        lane).  Within a lane, a later pair for the same gate overrides
        an earlier one (see :func:`lane_fault_list`).  Replaces any
        previously installed faults.
        """

    @abstractmethod
    def clear_faults(self):
        """Remove every fault and re-settle."""

    @abstractmethod
    def step(self):
        """One clock cycle: settle, clock the DFFs, settle."""

    # -- observation ---------------------------------------------------

    @abstractmethod
    def read_net(self, net, lane=0):
        """Value (0/1) of one net in one lane."""

    @abstractmethod
    def read_bus(self, stem, width=None, lane=0):
        """Little-endian integer value of bus ``stem0..N`` in one lane."""

    def read_bus_lanes(self, stem, width=None):
        """Bus value in every lane, as a list indexed by lane.

        Backends with a packed representation override this with a
        transposed extraction; the generic version just loops.
        """
        return [
            self.read_bus(stem, width=width, lane=lane)
            for lane in range(self.lanes)
        ]

    def read_bus_lane_array(self, stem, width=None):
        """Bus value in every lane, as a numpy int64 array.

        Campaign drivers compare thousands of lanes per instruction;
        an array return keeps that comparison vectorized.  Packed
        backends override this to skip the Python loop entirely.
        """
        import numpy as np

        return np.asarray(
            self.read_bus_lanes(stem, width=width), dtype=np.int64
        )

    @abstractmethod
    def toggles(self, lane=0):
        """{gate name: toggle count} for one lane."""

    def toggle_coverage(self, lane=0):
        """(fraction of gates that toggled, mean toggles per gate)."""
        counts = self.toggles(lane)
        total = len(counts) or 1
        toggled = sum(1 for count in counts.values() if count)
        mean = sum(counts.values()) / total
        return toggled / total, mean

    def toggle_coverage_lanes(self):
        """Toggle coverage of every lane, as (fractions, means) arrays.

        Result assembly over wafer-scale lane counts must not loop in
        Python; packed backends override this with matrix reductions.
        """
        import numpy as np

        pairs = [self.toggle_coverage(lane) for lane in range(self.lanes)]
        fractions = np.array([fraction for fraction, _ in pairs])
        means = np.array([mean for _, mean in pairs])
        return fractions, means

    @abstractmethod
    def flush_obs(self):
        """Fold lane-adjusted evaluation tallies into the obs registry.

        Lane adjustment keeps the ``gate_evaluations_total`` /
        ``gate_settle_passes_total`` counters comparable across
        backends: a 64-lane settle pass is charged as 64 passes, so a
        batched fault campaign reports the same totals as the
        equivalent serial one.
        """
