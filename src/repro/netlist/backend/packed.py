"""Lane-packed gate-level simulation: one generator, two kernel emitters.

A *lane* is one independent simulation of the netlist (one fault
candidate, or one Monte Carlo die); lane ``l`` of a net is bit ``l`` of
that net's lane word -- the classic parallel-fault-simulation packing --
so one settle pass advances every lane at once.

The netlist is compiled once per instance:

- **Levelize and group.**  Comb gates get ASAP levels and are ordered
  by level, then by function family (xor / and / mux), then levelized
  order.  That order IS the dense net numbering of the comb outputs
  (after constants and primary inputs, before flop outputs), so every
  group writes a contiguous run of state rows.
- **Specialize one kernel per fault set.**  The levelized program is
  emitted as straight-line Python source and compiled; per-lane
  stuck-at faults are burned in as per-gate lane masks
  (``out = (f(in) & keep) | stuck``), so the hot loop is branch-free.
  The construction-time settle is deferred until first use, so a fault
  campaign compiles exactly one kernel, for its own fault set.

The *emitter* -- the kernel's word type -- is picked at construction by
lane count; nothing else differs:

- **int** (``lanes <= INT_EMITTER_MAX_LANES``): one Python int per net,
  any width.  The kernel keeps every net in a local variable and
  evaluates each gate as one or two bitwise operations, so a settle
  costs tens of nanoseconds per gate up to a few hundred lanes.
- **array** (wider): one ``(words,)`` NumPy ``uint64`` row per net
  (lane ``l`` in bit ``l % 64`` of word ``l // 64``).  Per-gate NumPy
  calls would drown in fixed overhead, so each level takes every
  operand it needs in one gather and evaluates at most three *function
  families* in place on views of it: the XOR family (buf / inv / xor2 /
  xnor2 as ``x ^ y ^ P`` with a virtual constant-zero operand), the AND
  family (nand2 / nor2 as ``((a ^ Pa) & (b ^ Pb)) ^ Po`` via De
  Morgan) and mux2.  Polarity masks ``P`` are per-gate ``(n, 1)``
  constants, elided when uniform.

Shared by both emitters: the net numbering, the fault tables, bus and
per-lane I/O (including :meth:`PackedBackend.set_input_lanes`) and the
toggle counters.  Each settle snapshots the toggle rows into a small
uint64 history; every few dozen settles the snapshots' XOR-differences
are summed per (gate, lane) by a carry-save adder tree and folded into
*bit-plane* counters -- plane ``p`` holds bit ``p`` of every counter as
a ``(gates, words)`` array.  Counts stay exact and are assembled into
integers only when read.

Observability is lane-adjusted: a settle pass over ``lanes`` lanes is
charged as ``lanes`` passes (and ``lanes * gates`` evaluations), so
``gate_evaluations_total`` from a batched campaign equals the serial
total.  See ``docs/GATESIM.md`` for the measured emitter crossover.
"""

from collections import defaultdict

import numpy as np

from repro import obs
from repro.netlist.backend.base import (
    SimBackend,
    lane_fault_list,
    register_backend,
)
from repro.netlist.levelize import levelize

#: Lanes per NumPy ``uint64`` word (one bit per lane).
WORD_LANES = 64
#: All-lanes-high word.
FULL_MASK = (1 << WORD_LANES) - 1
#: Lane capacity of the ``vector`` registration.  Soft bound: memory is
#: ``nets x words`` state words plus ``gates x words`` words per toggle
#: bit-plane, so 64k lanes of a 256-gate core is a few megabytes.
VECTOR_MAX_LANES = 1 << 16
#: Widest instance simulated by the Python-int emitter; wider ones use
#: the NumPy array emitter.  Measured crossover, see docs/GATESIM.md.
INT_EMITTER_MAX_LANES = 768
#: Toggle-row snapshot words buffered before they are folded into the
#: counters: small enough that the adder tree's operands stay in cache.
_HISTORY_WORDS = 1 << 17

#: Int emitter: cell function -> expression over operand locals
#: {a}, {b}, {c} and the all-lanes mask M.
_EXPRESSIONS = {
    "buf": "{a}",
    "inv": "{a} ^ M",
    "nand2": "({a} & {b}) ^ M",
    "nor2": "({a} | {b}) ^ M",
    "xor2": "{a} ^ {b}",
    "xnor2": "{a} ^ {b} ^ M",
    # (a, b, sel): b when sel else a, lane-wise.
    "mux2": "{a} ^ (({a} ^ {b}) & {c})",
}
#: Array emitter families: buf/inv/xor2/xnor2 as ``x ^ y ^ P`` (y is the
#: virtual zero for the one-input cells); nand2/nor2 as
#: ``((a ^ Pa) & (b ^ Pb)) ^ Po``; everything else is mux2.
_XOR_FAMILY = {"buf": 0, "inv": 1, "xor2": 0, "xnor2": 1}
_AND_FAMILY = {"nand2": (0, 0, 1), "nor2": (1, 1, 0)}


def _add_planes(a, b):
    """Sum of two little-endian bit-plane numbers: lists of same-shape
    uint64 arrays, plane ``p`` holding bit ``p`` of every element."""
    if len(b) > len(a):
        a, b = b, a
    out, carry = [], None
    for index, x in enumerate(a):
        if index < len(b):
            y = b[index]
            if carry is None:  # half adder on the lowest plane
                out.append(x ^ y)
                carry = x & y
                continue
            half = x ^ y
            out.append(half ^ carry)
            carry = (x & y) | (half & carry)
        elif carry is None or not carry.any():
            return out + a[index:]
        else:
            out.append(x ^ carry)
            carry = x & carry
    if carry is not None and carry.any():
        out.append(carry)
    return out


def _sum_planes(planes):
    """Sum bit-plane numbers over their leading axis.

    ``planes`` lists same-shape arrays whose leading axis indexes the
    numbers being summed; the result lists the total's planes with that
    axis dropped.  A carry-save adder tree: ``log2(n)`` levels of
    word-wide bitwise ops, each halving the count of numbers.
    """
    while len(planes[0]) > 1:
        if len(planes[0]) % 2:
            planes = [np.concatenate([p, np.zeros_like(p[:1])])
                      for p in planes]
        planes = _add_planes([p[0::2] for p in planes],
                             [p[1::2] for p in planes])
    return [p[0] for p in planes]


def _family(gate):
    function = gate.cell.function
    if function in _XOR_FAMILY:
        return 0
    return 1 if function in _AND_FAMILY else 2


class PackedBackend(SimBackend):
    """Levelized, lane-packed evaluation; subclasses set ``max_lanes``."""

    def __init__(self, netlist, lanes=1):
        if not 1 <= lanes <= self.max_lanes:
            raise ValueError(
                f"{self.name} backend supports 1..{self.max_lanes} "
                f"lanes, got {lanes}"
            )
        netlist.validate()
        self.netlist = netlist
        self._lanes = lanes
        self._words = -(-lanes // WORD_LANES)
        self._wide = lanes > INT_EMITTER_MAX_LANES
        self._ones = (1 << lanes) - 1
        self._flops = [g for g in netlist.gates if g.sequential]

        # ASAP levels, then the evaluation-group schedule.
        net_level = defaultdict(int)
        gate_level = {}
        comb = levelize(netlist)
        for gate in comb:
            level = max((net_level[n] for n in gate.inputs), default=0)
            gate_level[gate.name] = level
            net_level[gate.output] = level + 1
        by_level = defaultdict(list)
        for gate in comb:
            by_level[gate_level[gate.name]].append(gate)
        self._schedule = [
            tuple([g for g in by_level[level] if _family(g) == family]
                  for family in range(3))
            for level in range(len(by_level))
        ]
        self._comb = [gate for groups in self._schedule
                      for group in groups for gate in group]

        # Dense net numbering: constants, primary inputs, comb outputs
        # in group order, flop outputs, one virtual constant-zero row.
        ids = {}
        for net in (*netlist.constants, *netlist.inputs):
            ids.setdefault(net, len(ids))
        self._comb_lo = len(ids)
        for gate in self._comb:
            ids[gate.output] = len(ids)
        self._flop_lo = len(ids)
        for gate in self._flops:
            ids[gate.output] = len(ids)
        self._zero_row = len(ids)
        self._net_ids = ids
        self._bus_cache = {}
        #: gate name -> (is flop, net row or flop position).
        self._fault_slots = {
            gate.name: (False, ids[gate.output]) for gate in self._comb
        }
        self._fault_slots.update(
            (gate.name, (True, position))
            for position, gate in enumerate(self._flops)
        )
        self._flop_d = [ids[g.inputs[0]] for g in self._flops]

        # Toggle rows: comb gates (group order) then flops.
        self._row_names = [g.name for g in self._comb] + [
            g.name for g in self._flops
        ]
        self._n_comb = len(self._comb)
        self._rows = len(self._row_names)
        self._planes = []          # bit-plane toggle counters
        # Toggle-row snapshots not yet counted: slot 0 is the baseline,
        # then one slot per counted settle.
        events = 64
        while events > 1 and events * self._rows * self._words > \
                _HISTORY_WORDS:
            events //= 2
        self._history = np.zeros((events + 1, self._rows, self._words),
                                 dtype=np.uint64)
        self._filled = 0
        self._counts_cache = None  # lazily assembled (rows, lanes) ints

        #: {comb net row: (lane mask, stuck)}, Python ints over lanes.
        self._comb_fault = {}
        #: {flop position: (lane mask, stuck)}.
        self._flop_fault = {}

        self._cycles = 0

        if self._wide:
            self._high = np.uint64(FULL_MASK)
            self._low = np.uint64(0)
            self._flop_d = np.array(self._flop_d, dtype=np.intp)
            self._state = np.zeros((self._zero_row + 1, self._words),
                                   dtype=np.uint64)
        else:
            self._high, self._low = self._ones, 0
            self._state = [0] * (self._zero_row + 1)
        for net, value in netlist.constants.items():
            self._state[ids[net]] = self._high if value else self._low

        # The construction settle is charged now but runs on first use
        # (see _catch_up): a fault install settles from scratch anyway,
        # so a campaign compiles one kernel, for its own fault set.
        self._kernel = None
        self._deferred = True
        self.settle_passes = lanes
        self.gate_evaluations = self._n_comb * lanes

    # -- kernel specialization ----------------------------------------

    def _specialize(self):
        """Compile the settle kernel for the installed fault set."""
        namespace = {"M": np.uint64(FULL_MASK)}
        lines = (self._emit_array(namespace) if self._wide
                 else self._emit_int())
        exec(compile("\n".join(lines),
                     f"<packed:{self.netlist.name}>", "exec"), namespace)
        self._kernel = namespace["kernel"]
        # Clock-edge patches as (position, keep, stuck); the array
        # emitter patches the whole flop block in one op.
        if self._wide and self._flop_fault:
            self._flop_patch = [(slice(None), *self._dense_patch(
                self._flop_fault, range(len(self._flops))))]
        else:
            self._flop_patch = [
                (position, *self._patch(*fault))
                for position, fault in sorted(self._flop_fault.items())
            ]

    def _patch(self, mask, stuck):
        """(keep, stuck) in the state's word type for one faulted gate."""
        keep = self._ones ^ mask
        if self._wide:
            return self._mask_words(keep), self._mask_words(stuck)
        return keep, stuck

    def _dense_patch(self, faults, keys):
        """(keep, stuck) row stacks over ``keys``; keys without a fault
        pass through unchanged."""
        identity = self._patch(0, 0)
        pairs = [self._patch(*faults[key]) if key in faults else identity
                 for key in keys]
        return (np.stack([keep for keep, _ in pairs]),
                np.stack([stuck for _, stuck in pairs]))

    def _emit_int(self):
        """Straight-line kernel over Python-int lane words.

        Every net lives in a local ``n<row>`` for the whole pass: the
        sources are unpacked from the state list once, each gate is one
        assignment, and the comb outputs are stored back as one slice.
        """
        lo, hi, top = self._comb_lo, self._flop_lo, self._zero_row
        ids = self._net_ids

        def names(start, stop):
            return "".join(f"n{row}, " for row in range(start, stop))

        lines = ["def kernel(V):", f"    M = {self._ones}"]
        for start, stop in ((0, lo), (hi, top)):
            if stop > start:
                lines.append(f"    {names(start, stop)}= V[{start}:{stop}]")
        for gate in self._comb:
            row = ids[gate.output]
            expr = _EXPRESSIONS[gate.cell.function].format(**{
                key: f"n{ids[net]}" for key, net in zip("abc", gate.inputs)
            })
            patch = self._comb_fault.get(row)
            if patch is not None:
                keep, stuck = self._patch(*patch)
                expr = f"(({expr}) & {keep}) | {stuck}"
            lines.append(f"    n{row} = {expr}")
        lines.append(f"    V[{lo}:{hi}] = {names(lo, hi)}" if hi > lo
                     else "    pass")
        return lines

    def _emit_array(self, namespace):
        """Level-gather kernel over ``(words,)`` uint64 lane rows.

        Per level: one ``np.take`` of every operand the level reads
        into a shared gather buffer, one in-place expression per
        function family from views of that buffer into the level's
        contiguous output rows, then the level's fault patch, in place
        on those rows (so downstream levels read the forced values).
        Views, index, polarity and patch arrays are all bound into the
        kernel's globals -- the state array never moves -- so a settle
        is a fixed list of ufunc calls that allocates almost nothing.
        """
        ids, state = self._net_ids, self._state
        namespace.update(take=state.take, xor=np.bitwise_xor,
                         both=np.bitwise_and, either=np.bitwise_or)
        arity = (2, 2, 3)  # operands per family: xor, and, mux
        widest = max((sum(len(gates) * n for gates, n in zip(groups, arity))
                      for groups in self._schedule), default=0)
        buffer = np.empty((widest, self._words), dtype=np.uint64)
        lines = ["def kernel(V):"]
        out = self._comb_lo

        def bind(name, value):
            namespace[name] = value
            return name

        def polarity(name, values):
            """None when uniformly zero, 'M' when uniformly one, else a
            per-gate (n, 1) column bound as ``name``."""
            if not any(values):
                return None
            if all(values):
                return "M"
            return bind(name, np.array(
                [FULL_MASK if v else 0 for v in values], dtype=np.uint64
            ).reshape(-1, 1))

        for level, groups in enumerate(self._schedule):
            # Gather block layout: per family, operand position major;
            # a one-input gate's second operand is the zero row.
            gather, operands = [], []
            for family, gates in enumerate(groups):
                operands.append([])
                for position in range(arity[family]):
                    start = len(gather)
                    gather.extend(
                        self._zero_row if position >= len(g.inputs)
                        else ids[g.inputs[position]]
                        for g in gates
                    )
                    operands[-1].append(bind(f"G{level}_{family}{position}",
                                             buffer[start:len(gather)]))
            g = bind(f"G{level}", buffer[:len(gather)])
            indices = bind(f"L{level}", np.array(gather, dtype=np.intp))
            lines.append(f"    take({indices}, 0, {g}, 'clip')")
            first = out
            for family, gates in enumerate(groups):
                if not gates:
                    continue
                o = bind(f"O{level}{family}", state[out:out + len(gates)])
                out += len(gates)
                a, b, *c = operands[family]
                functions = [gate.cell.function for gate in gates]
                if family == 0:
                    p = polarity(f"X{level}",
                                 [_XOR_FAMILY[f] for f in functions])
                    ops = [f"xor({a}, {b}, {o})"]
                    ops += [f"xor({o}, {p}, {o})"] if p else []
                elif family == 1:
                    pa, pb, po = (
                        polarity(f"A{level}{key}",
                                 [_AND_FAMILY[f][index] for f in functions])
                        for index, key in enumerate("abo")
                    )
                    right = f"({b} ^ {pb})" if pb else b
                    ops = ([f"xor({a}, {pa}, {o})", f"both({o}, {right}, {o})"]
                           if pa else [f"both({a}, {right}, {o})"])
                    ops += [f"xor({o}, {po}, {o})"] if po else []
                else:
                    # (a, b, sel): b when sel else a, lane-wise.
                    ops = [f"xor({a}, {b}, {o})", f"both({o}, {c[0]}, {o})",
                           f"xor({o}, {a}, {o})"]
                lines += [f"    {op}" for op in ops]
            if any(row in self._comb_fault for row in range(first, out)):
                q = bind(f"Q{level}", state[first:out])
                keep, stuck = self._dense_patch(self._comb_fault,
                                                range(first, out))
                lines += [f"    both({q}, {bind(f'K{level}', keep)}, {q})",
                          f"    either({q}, {bind(f'F{level}', stuck)}, {q})"]
        if len(lines) == 1:
            lines.append("    pass")
        return lines

    # -- SimBackend interface -----------------------------------------

    @property
    def lanes(self):
        return self._lanes

    @property
    def emitter(self):
        """``"int"`` or ``"array"``: the kernel word type, fixed at
        construction by the lane count."""
        return "array" if self._wide else "int"

    @property
    def cycles(self):
        return self._cycles

    def set_inputs(self, assignments):
        self._catch_up()
        state, ids = self._state, self._net_ids
        high, low = self._high, self._low
        for name, value in assignments.items():
            index = ids.get(name)
            if index is not None:
                self._validate_scalar(name, value)
                state[index] = high if value else low
                continue
            rows = self._input_bus(name)
            self._validate_bus(name, len(rows), value)
            for bit, index in enumerate(rows):
                state[index] = high if (value >> bit) & 1 else low

    def set_input_lanes(self, assignments):
        """Per-lane stimulus: one value per lane for each named input.

        Where :meth:`set_inputs` broadcasts a single value to every
        lane, this folds per-die variation into the lane words -- each
        lane (die) sees its own input value.  ``assignments`` maps a
        scalar net to a length-``lanes`` sequence of 0/1, or a bus stem
        to a length-``lanes`` sequence of bus values.
        """
        self._catch_up()
        for name, values in assignments.items():
            values = np.asarray(values, dtype=np.int64)
            if values.shape != (self._lanes,):
                raise ValueError(
                    f"input '{name}' needs one value per lane "
                    f"({self._lanes}), got shape {values.shape}"
                )
            index = self._net_ids.get(name)
            if index is not None:
                if values.min() < 0 or values.max() > 1:
                    raise ValueError(
                        f"input '{name}' is a single net; values "
                        f"must be 0 or 1"
                    )
                rows = [index]
            else:
                rows = self._input_bus(name)
                if values.min() < 0 or values.max() >= (1 << len(rows)):
                    raise ValueError(
                        f"value out of range for {len(rows)}-bit bus "
                        f"'{name}'"
                    )
            bits = (values[None, :] >> np.arange(len(rows))[:, None]) & 1
            words = self._pack_lanes(bits.astype(np.uint8))
            for row, lane_words in zip(rows, words):
                self._state[row] = (
                    lane_words if self._wide
                    else int.from_bytes(lane_words.tobytes(), "little")
                )

    def set_fault_lanes(self, faults):
        """Install per-lane faults; within one lane, when several pairs
        name the same gate the last pair wins (as in the interpreted
        reference, whose later ``inject_fault`` overrides)."""
        faults = list(faults)
        if len(faults) > self._lanes:
            raise ValueError(
                f"{len(faults)} fault lanes for a "
                f"{self._lanes}-lane backend"
            )
        tables = ({}, {})  # comb rows, flop positions
        injected = 0
        for lane, entry in enumerate(faults):
            bit = 1 << lane
            for gate_name, stuck in lane_fault_list(entry):
                slot = self._fault_slots.get(gate_name)
                if slot is None:
                    raise KeyError(f"no gate named '{gate_name}'")
                injected += 1
                is_flop, key = slot
                mask, value = tables[is_flop].get(key, (0, 0))
                value = value | bit if stuck & 1 else value & ~bit
                tables[is_flop][key] = (mask | bit, value)
        self._comb_fault, self._flop_fault = tables
        self._kernel = None
        if injected:
            # Mirror the interpreter's inject_fault(): propagate the
            # faults without counting toggles, charging one settle per
            # injected fault (the serial reference settles once per
            # injection).
            self._settle(count=False, charge_lanes=injected)

    def clear_faults(self):
        had_faults = bool(self._comb_fault or self._flop_fault)
        self._comb_fault = {}
        self._flop_fault = {}
        self._kernel = None
        if had_faults:
            self._settle(count=False)

    def step(self):
        self._catch_up()
        self._settle(count=True)
        self._edge()
        self._cycles += 1
        self._settle(count=True)

    def read_net(self, net, lane=0):
        self._catch_up()
        self._check_lane(lane)
        return self._bit(self._net_ids[net], lane)

    def read_bus(self, stem, width=None, lane=0):
        self._catch_up()
        self._check_lane(lane)
        value = 0
        for position, index in enumerate(self._bus_ids(stem, width)):
            value |= self._bit(index, lane) << position
        return value

    def _bit(self, index, lane):
        word = self._state[index]
        if self._wide:
            word, lane = int(word[lane // WORD_LANES]), lane % WORD_LANES
        return (word >> lane) & 1

    def read_bus_lane_array(self, stem, width=None):
        self._catch_up()
        indices = self._bus_ids(stem, width)
        if self._wide:
            words = self._state[indices]
        else:
            words = self._int_words([self._state[i] for i in indices])
        powers = np.left_shift(1, np.arange(len(indices)), dtype=np.int64)
        return powers @ self._unpack_lanes(words).astype(np.int64)

    def read_bus_lanes(self, stem, width=None):
        return self.read_bus_lane_array(stem, width).tolist()

    def toggles(self, lane=0):
        self._check_lane(lane)
        column = self._toggle_counts()[:, lane]
        return {name: int(count)
                for name, count in zip(self._row_names, column)}

    def toggle_coverage(self, lane=0):
        self._check_lane(lane)
        column = self._toggle_counts()[:, lane]
        total = self._rows or 1
        toggled = int(np.count_nonzero(column))
        mean = int(column.sum()) / total
        return toggled / total, mean

    def toggle_coverage_lanes(self):
        # Straight from the bit-planes: a row toggled in a lane when
        # any plane has its bit, and the per-lane toggle total is the
        # planes' column sum -- no (rows, lanes) integer matrix.
        self._flush()
        total = self._rows or 1
        if not (self._planes and self._rows):
            zeros = np.zeros(self._lanes)
            return zeros, zeros.copy()
        toggled = self._unpack_lanes(np.bitwise_or.reduce(self._planes))
        sums = np.zeros(self._lanes, dtype=np.int64)
        for position, plane in enumerate(_sum_planes(self._planes)):
            sums += self._unpack_lanes(plane[None])[0].astype(
                np.int64) << position
        return toggled.sum(axis=0) / total, sums / total

    def flush_obs(self):
        if not obs.active():
            return
        registry = obs.registry()
        registry.counter(
            "gate_evaluations_total",
            "Individual gate evaluations in the gate-level simulator",
        ).inc(self.gate_evaluations)
        registry.counter(
            "gate_settle_passes_total",
            "Combinational settle passes",
        ).inc(self.settle_passes)
        registry.counter(
            "gate_sim_cycles_total", "Gate-level clock cycles",
        ).inc(self._cycles * self._lanes)
        self.gate_evaluations = 0
        self.settle_passes = 0

    # -- bus, lane and input helpers -----------------------------------

    def _input_bus(self, stem):
        """Net rows of input bus ``stem``, bit 0 first."""
        key = ("input-bus", stem)
        rows = self._bus_cache.get(key)
        if rows is None:
            rows = self._bus_nets(stem)
            if not rows:
                raise KeyError(f"no such input '{stem}'")
            self._bus_cache[key] = rows
        return rows

    def _bus_nets(self, stem):
        """Net indices of ``stem0..N`` (empty when no such bus)."""
        nets = []
        while True:
            index = self._net_ids.get(f"{stem}{len(nets)}")
            if index is None:
                return nets
            nets.append(index)

    def _bus_ids(self, stem, width):
        key = (stem, width)
        cached = self._bus_cache.get(key)
        if cached is not None:
            return cached
        nets = self._bus_nets(stem)
        if not nets:
            raise KeyError(f"no such bus '{stem}'")
        if width is not None:
            if len(nets) < width:
                raise KeyError(
                    f"bus '{stem}' is only {len(nets)} bits wide; "
                    f"cannot read {width} bits"
                )
            nets = nets[:width]
        self._bus_cache[key] = nets
        return nets

    def _check_lane(self, lane):
        if not 0 <= lane < self._lanes:
            raise IndexError(
                f"lane {lane} out of range for a {self._lanes}-lane "
                f"backend"
            )

    def _validate_scalar(self, name, value):
        if value not in (0, 1):
            raise ValueError(
                f"input '{name}' is a single net; value must be 0 or 1, "
                f"got {value!r}"
            )

    def _validate_bus(self, stem, width, value):
        if not 0 <= value < (1 << width):
            raise ValueError(
                f"value {value!r} out of range for {width}-bit bus "
                f"'{stem}'"
            )

    # -- evaluation ----------------------------------------------------

    def _settle(self, count=True, charge_lanes=None):
        charge = self._lanes if charge_lanes is None else charge_lanes
        self.settle_passes += charge
        self.gate_evaluations += self._n_comb * charge
        self._deferred = False
        if self._kernel is None:
            self._specialize()
        if not count:
            self._flush()
            self._filled = 0
        self._kernel(self._state)
        self._snapshot()
        if count:
            self._counts_cache = None
            if self._filled == len(self._history):
                self._flush()

    def _catch_up(self):
        """Run the deferred construction settle (already charged)."""
        if self._deferred:
            self._settle(count=False, charge_lanes=0)

    def _edge(self):
        state = self._state
        if self._wide:
            new = state[self._flop_d]  # gather copies: read all D before Q
        else:
            new = [state[d] for d in self._flop_d]
        for position, keep, stuck in self._flop_patch:
            new[position] = (new[position] & keep) | stuck
        state[self._flop_lo:self._zero_row] = new

    def _snapshot(self):
        """Copy the toggle rows (comb outputs, then flop outputs) into
        the next history slot."""
        rows = self._state[self._comb_lo:self._zero_row]
        slot = self._history[self._filled]
        if self._wide:
            np.copyto(slot, rows)
        elif self._words == 1:
            slot[:, 0] = rows
        else:
            slot[:] = self._int_words(rows)
        self._filled += 1

    def _flush(self):
        """Fold the pending snapshots into the bit-plane counters.

        A counted settle's toggles are the set bits of its snapshot
        XOR the previous one (flop rows change only at the edge, so the
        settle after an edge picks those up too).  The batch's change
        matrices are summed per (row, lane) by :func:`_sum_planes` and
        the sum is ripple-added into the planes.
        """
        if self._filled > 1:
            snaps = self._history[:self._filled]
            self._planes = _add_planes(
                self._planes, _sum_planes([snaps[1:] ^ snaps[:-1]])
            )
            self._history[0] = snaps[-1]
            self._filled = 1

    # -- lane word conversions -----------------------------------------

    def _int_words(self, values):
        """``(len(values), words)`` uint64 matrix of Python-int words."""
        if self._words == 1:
            return np.array(values, dtype=np.uint64).reshape(-1, 1)
        size = 8 * self._words
        return np.frombuffer(
            b"".join([value.to_bytes(size, "little") for value in values]),
            dtype="<u8",
        ).reshape(-1, self._words)

    def _mask_words(self, mask):
        """A Python-int lane mask as a ``(words,)`` uint64 row."""
        return np.frombuffer(
            mask.to_bytes(8 * self._words, "little"), dtype="<u8"
        ).astype(np.uint64)

    def _unpack_lanes(self, words):
        """Unpack a ``(rows, words)`` uint64 block into per-lane bits,
        shape ``(rows, lanes)`` uint8, lane ``l`` at column ``l``."""
        little = np.ascontiguousarray(words, dtype="<u8")
        bits = np.unpackbits(little.view(np.uint8), axis=1,
                             bitorder="little")
        return bits[:, :self._lanes]

    def _pack_lanes(self, bits):
        """Pack a ``(rows, lanes)`` 0/1 matrix into ``(rows, words)``
        little-endian uint64 lane rows (the inverse of
        :meth:`_unpack_lanes`)."""
        padded = np.zeros((bits.shape[0], self._words * WORD_LANES),
                          dtype=np.uint8)
        padded[:, :self._lanes] = bits
        return np.packbits(padded, axis=1, bitorder="little").view("<u8")

    def _toggle_counts(self):
        """The (rows, lanes) integer counter matrix, assembled lazily
        from the bit-planes and cached until the next settle."""
        if self._counts_cache is None:
            self._flush()
            counts = np.zeros((self._rows, self._lanes), dtype=np.int64)
            for position, plane in enumerate(self._planes):
                counts += (
                    self._unpack_lanes(plane).astype(np.int64) << position
                )
            self._counts_cache = counts
        return self._counts_cache


@register_backend
class CompiledBackend(PackedBackend):
    """Packed evaluation of up to 64 lanes (one fault-campaign chunk)."""

    name = "compiled"
    max_lanes = WORD_LANES


@register_backend
class VectorBackend(PackedBackend):
    """Packed evaluation of up to 64k lanes (a whole wafer or campaign)."""

    name = "vector"
    max_lanes = VECTOR_MAX_LANES
