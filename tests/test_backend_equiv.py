"""Property-style equivalence: packed backends vs the interpreted reference.

The packed backends' (``compiled`` and ``vector``, one generator with
two kernel emitters) only correctness contract is "bit-identical to
the interpreter": same outputs, same per-gate toggle counts, same
fault verdicts, same observability totals.  These tests check that
contract on random programs and random fault sites over the
fabricated cores (FlexiCore4, FlexiCore8) and on random stimulus over
the DSE cores; the packed lanes are additionally exercised across the
64-lane word boundary (non-multiple-of-64 lane counts), with
zero-fault lanes, multi-defect die lanes, conflicting stuck-at pairs
on one gate, per-lane input variation, and each emitter forced.
"""

import numpy as np
import pytest

from repro import obs
from repro.fab.testing import random_program, sample_fault_sites
from repro.isa import get_isa
from repro.isa.extended import FULL_FEATURES
from repro.netlist.backend import packed
from repro.netlist.backend import (
    BACKENDS,
    INT_EMITTER_MAX_LANES,
    VECTOR_MAX_LANES,
    WORD_LANES,
    CompiledBackend,
    InterpretedBackend,
    PackedBackend,
    VectorBackend,
    configure,
    default_backend,
    make_backend,
    resolve_backend,
)
from repro.netlist.cores import build_core
from repro.netlist.dse_cores import build_extended_core, build_loadstore_core
from repro.netlist.verify import run_cross_check, run_cross_check_batch

FAB_CORES = ("flexicore4", "flexicore8")


@pytest.fixture(scope="module")
def cores():
    return {name: build_core(name) for name in FAB_CORES}


def _random_inputs(rng, bits, count):
    return [int(rng.integers(0, 1 << bits)) for _ in range(count)]


class TestCrossCheckEquivalence:
    """run_cross_check(_batch) through both backends, result for result."""

    @pytest.mark.parametrize("core", FAB_CORES)
    def test_random_program_and_faults_match(self, cores, core):
        netlist = cores[core]
        isa = get_isa(core)
        rng = np.random.default_rng(20220806)
        program = random_program(isa, rng, length=48)
        inputs = _random_inputs(rng, isa.word_bits, 32)
        faults = [None] + sample_fault_sites(netlist, rng, 7)

        reference = [
            run_cross_check(
                netlist, isa, program, inputs=inputs,
                max_instructions=100, fault=fault, backend="interpreted",
            )
            for fault in faults
        ]
        batched = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=100, faults=faults, backend="compiled",
        )
        # Dataclass equality covers cycles, mismatch counts, the exact
        # first-mismatch message, and both toggle statistics.
        assert batched == reference
        vectored = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=100, faults=faults, backend="vector",
        )
        assert vectored == reference

    def test_fault_free_single_lane_matches(self, cores):
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(99)
        program = random_program(isa, rng, length=32)
        inputs = _random_inputs(rng, isa.word_bits, 16)
        results = {
            name: run_cross_check(
                netlist, isa, program, inputs=inputs,
                max_instructions=60, backend=name,
            )
            for name in sorted(BACKENDS)
        }
        assert results["compiled"] == results["interpreted"]
        assert results["vector"] == results["interpreted"]

    def test_interpreted_chunks_to_per_fault_runs(self, cores):
        """The single-lane reference still accepts a fault batch."""
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(4)
        program = random_program(isa, rng, length=24)
        faults = sample_fault_sites(netlist, rng, 3)
        batched = run_cross_check_batch(
            netlist, isa, program, max_instructions=40,
            faults=faults, backend="interpreted",
        )
        assert len(batched) == len(faults)


class TestLaneSemantics:
    """Per-lane state on the compiled backend vs serial reference runs."""

    def test_mixed_fault_lanes_match_serial(self, cores):
        netlist = cores["flexicore4"]
        comb_gate = next(
            g.name for g in netlist.gates if not g.sequential
        )
        flop_gate = next(g.name for g in netlist.gates if g.sequential)
        faults = [None, (comb_gate, 1), (flop_gate, 0), (comb_gate, 1)]

        packed = CompiledBackend(netlist, lanes=len(faults))
        packed.set_fault_lanes(faults)
        serial = []
        for fault in faults:
            sim = InterpretedBackend(netlist)
            sim.set_fault_lanes([fault])
            serial.append(sim)

        rng = np.random.default_rng(11)
        for _ in range(24):
            stimulus = {
                "instr": int(rng.integers(0, 256)),
                "iport": int(rng.integers(0, 16)),
            }
            packed.set_inputs(stimulus)
            packed.step()
            for sim in serial:
                sim.set_inputs(stimulus)
                sim.step()
            for lane, sim in enumerate(serial):
                assert packed.read_bus("pc", lane=lane) == \
                    sim.read_bus("pc")
                assert packed.read_bus("oport", lane=lane) == \
                    sim.read_bus("oport")

        for lane, sim in enumerate(serial):
            assert packed.toggles(lane) == sim.toggles()
            assert packed.toggle_coverage(lane) == sim.toggle_coverage()
        # Duplicate faults in different lanes behave identically.
        assert packed.toggles(3) == packed.toggles(1)

    def test_lane_bounds(self, cores):
        netlist = cores["flexicore4"]
        with pytest.raises(ValueError):
            CompiledBackend(netlist, lanes=WORD_LANES + 1)
        with pytest.raises(ValueError):
            CompiledBackend(netlist, lanes=0)
        with pytest.raises(ValueError):
            InterpretedBackend(netlist, lanes=2)
        sim = CompiledBackend(netlist, lanes=2)
        with pytest.raises(IndexError):
            sim.read_bus("pc", lane=2)
        with pytest.raises(ValueError):
            sim.set_fault_lanes([None, None, None])


class TestVectorLaneSemantics:
    """Vector-specific lane behavior: word-boundary crossing, zero-fault
    lanes, multi-defect die lanes, and per-lane input variation."""

    @pytest.mark.parametrize("core", FAB_CORES)
    def test_boundary_crossing_campaign_matches_compiled(self, cores,
                                                         core):
        """70 lanes (not a multiple of 64, spilling into word 1) with
        zero-fault lanes interleaved, checked against the compiled
        backend (itself proven against the interpreter above)."""
        netlist = cores[core]
        isa = get_isa(core)
        rng = np.random.default_rng(70)
        program = random_program(isa, rng, length=40)
        inputs = _random_inputs(rng, isa.word_bits, 24)
        sites = sample_fault_sites(netlist, rng, 67)
        faults = [None, None] + sites[:33] + [None] + sites[33:]
        assert len(faults) == 70 and len(faults) % WORD_LANES != 0
        compiled = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=80, faults=faults, backend="compiled",
        )
        vectored = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=80, faults=faults, backend="vector",
        )
        assert vectored == compiled

    def test_multi_defect_die_lanes_match_serial(self, cores):
        """A lane entry that is a *list* of stuck-at pairs behaves like
        one interpreted instance with every fault injected."""
        netlist = cores["flexicore4"]
        rng = np.random.default_rng(17)
        sites = sample_fault_sites(netlist, rng, 6)
        faults = [None, sites[:2], sites[2:5], [sites[5]]]

        packed = VectorBackend(netlist, lanes=len(faults))
        packed.set_fault_lanes(faults)
        serial = []
        for entry in faults:
            sim = InterpretedBackend(netlist)
            sim.set_fault_lanes([entry])
            serial.append(sim)

        drive = np.random.default_rng(23)
        for _ in range(20):
            stimulus = {
                "instr": int(drive.integers(0, 256)),
                "iport": int(drive.integers(0, 16)),
            }
            packed.set_inputs(stimulus)
            packed.step()
            for sim in serial:
                sim.set_inputs(stimulus)
                sim.step()
        for lane, sim in enumerate(serial):
            assert packed.read_bus("pc", lane=lane) == \
                sim.read_bus("pc")
            assert packed.read_bus("oport", lane=lane) == \
                sim.read_bus("oport")
            assert packed.toggles(lane) == sim.toggles()

    def test_per_lane_inputs_match_serial(self, cores):
        """set_input_lanes: each lane sees its own IPORT value, as a
        per-die variation vector, bit-exact vs per-lane references --
        including lanes past the first uint64 word."""
        netlist = cores["flexicore4"]
        lanes = 70
        packed = VectorBackend(netlist, lanes=lanes)
        rng = np.random.default_rng(3)
        iports = rng.integers(0, 16, size=lanes)
        check = [0, 1, 63, 64, 69]  # both sides of the word boundary
        serial = {lane: InterpretedBackend(netlist) for lane in check}
        for _ in range(16):
            instr = int(rng.integers(0, 256))
            packed.set_inputs({"instr": instr})
            packed.set_input_lanes({"iport": iports})
            packed.step()
            for lane, sim in serial.items():
                sim.set_inputs({
                    "instr": instr, "iport": int(iports[lane]),
                })
                sim.step()
        for lane, sim in serial.items():
            assert packed.read_bus("pc", lane=lane) == \
                sim.read_bus("pc")
            assert packed.read_bus("oport", lane=lane) == \
                sim.read_bus("oport")
            assert packed.toggles(lane) == sim.toggles()

    def test_per_lane_input_validation(self, cores):
        sim = VectorBackend(cores["flexicore4"], lanes=4)
        with pytest.raises(ValueError, match="one value per lane"):
            sim.set_input_lanes({"iport": [1, 2]})
        with pytest.raises(ValueError, match="out of range"):
            sim.set_input_lanes({"iport": [0, 1, 2, 16]})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            sim.set_input_lanes({"iport0": [0, 1, 2, 0]})
        with pytest.raises(KeyError):
            sim.set_input_lanes({"no_such_bus": [0, 0, 0, 0]})

    def test_lane_bounds(self, cores):
        netlist = cores["flexicore4"]
        with pytest.raises(ValueError):
            VectorBackend(netlist, lanes=0)
        with pytest.raises(ValueError):
            VectorBackend(netlist, lanes=VECTOR_MAX_LANES + 1)
        sim = VectorBackend(netlist, lanes=66)
        with pytest.raises(IndexError):
            sim.read_bus("pc", lane=66)
        with pytest.raises(ValueError):
            sim.set_fault_lanes([None] * 67)
        # Capacity past one word is real, not just accepted.
        assert sim.read_bus("pc", lane=65) == sim.read_bus("pc", lane=0)


class TestDseCoreEquivalence:
    """The DSE netlists simulate identically on both backends."""

    @pytest.mark.parametrize("builder", [
        pytest.param(
            lambda: build_extended_core(frozenset(FULL_FEATURES)),
            id="extacc-full",
        ),
        pytest.param(lambda: build_loadstore_core("SC"), id="loadstore-sc"),
    ])
    def test_random_stimulus_and_toggles_match(self, builder):
        netlist = builder()
        instr_bits = sum(
            1 for net in netlist.inputs if net.startswith("instr")
        )
        iport_bits = sum(
            1 for net in netlist.inputs if net.startswith("iport")
        )
        reference = make_backend("interpreted", netlist)
        compiled = make_backend("compiled", netlist)
        vectored = make_backend("vector", netlist)
        rng = np.random.default_rng(2022)
        for _ in range(32):
            stimulus = {
                "instr": int(rng.integers(0, 1 << instr_bits)),
                "iport": int(rng.integers(0, 1 << iport_bits)),
            }
            for sim in (reference, compiled, vectored):
                sim.set_inputs(stimulus)
                sim.step()
            for sim in (compiled, vectored):
                assert sim.read_bus("pc") == reference.read_bus("pc")
                assert sim.read_bus("oport") == \
                    reference.read_bus("oport")
        assert compiled.toggles() == reference.toggles()
        assert vectored.toggles() == reference.toggles()

    def test_dse_core_fault_verdicts_match(self):
        netlist = build_extended_core(frozenset(FULL_FEATURES))
        rng = np.random.default_rng(5)
        sites = sample_fault_sites(netlist, rng, 4)

        def outputs_after(backend_name, fault):
            sim = make_backend(backend_name, netlist)
            if fault is not None:
                sim.set_fault_lanes([fault])
            drive = np.random.default_rng(77)
            trace = []
            for _ in range(16):
                sim.set_inputs({
                    "instr": int(drive.integers(0, 256)),
                    "iport": int(drive.integers(0, 16)),
                })
                sim.step()
                trace.append((sim.read_bus("pc"), sim.read_bus("oport")))
            return trace

        for fault in [None] + sites:
            reference = outputs_after("interpreted", fault)
            assert outputs_after("compiled", fault) == reference
            assert outputs_after("vector", fault) == reference


class TestInputValidation:
    """Satellite: strict scalar/bus validation on every backend."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_scalar_rejects_out_of_range(self, cores, backend):
        sim = make_backend(backend, cores["flexicore4"])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            sim.set_inputs({"instr0": 2})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            sim.set_inputs({"instr0": -1})
        sim.set_inputs({"instr0": 1})
        assert sim.read_net("instr0") == 1

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_bus_rejects_out_of_range(self, cores, backend):
        sim = make_backend(backend, cores["flexicore4"])
        with pytest.raises(ValueError, match="out of range"):
            sim.set_inputs({"instr": 256})
        with pytest.raises(ValueError, match="out of range"):
            sim.set_inputs({"iport": -1})
        with pytest.raises(KeyError):
            sim.set_inputs({"no_such_bus": 1})

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_read_bus_width_checked(self, cores, backend):
        sim = make_backend(backend, cores["flexicore4"])
        with pytest.raises(KeyError, match="only 7 bits wide"):
            sim.read_bus("pc", width=8)
        with pytest.raises(KeyError, match="no such bus"):
            sim.read_bus("nonexistent")
        assert sim.read_bus("pc", width=4) == sim.read_bus("pc") & 0xF


class TestObservability:
    """Lane-adjusted counters: batched totals equal serial totals."""

    @pytest.fixture(autouse=True)
    def clean_obs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        obs.reset()
        yield
        obs.reset()

    GATE_COUNTERS = (
        "gate_evaluations_total",
        "gate_settle_passes_total",
        "gate_sim_cycles_total",
    )

    def _campaign_totals(self, netlist, isa, program, faults, backend):
        obs.reset()
        obs.configure(metrics=True)
        if backend == "interpreted":
            for fault in faults:
                run_cross_check(
                    netlist, isa, program, max_instructions=30,
                    fault=fault, backend=backend,
                )
        else:
            run_cross_check_batch(
                netlist, isa, program, max_instructions=30,
                faults=faults, backend=backend,
            )
        registry = obs.registry()
        return {
            name: registry.counter(name).total()
            for name in self.GATE_COUNTERS
        }

    def test_batched_totals_equal_serial(self, cores):
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(8)
        program = random_program(isa, rng, length=16)
        faults = [None] + sample_fault_sites(netlist, rng, 5)
        serial = self._campaign_totals(
            netlist, isa, program, faults, "interpreted"
        )
        batched = self._campaign_totals(
            netlist, isa, program, faults, "compiled"
        )
        assert batched == serial
        vectored = self._campaign_totals(
            netlist, isa, program, faults, "vector"
        )
        assert vectored == serial
        assert serial["gate_evaluations_total"] > 0


class TestRegistry:
    def test_known_backends(self):
        assert set(BACKENDS) == {"interpreted", "compiled", "vector"}
        assert resolve_backend("compiled") is CompiledBackend
        assert resolve_backend("interpreted") is InterpretedBackend
        assert resolve_backend("vector") is VectorBackend
        assert VectorBackend.max_lanes == VECTOR_MAX_LANES
        assert VectorBackend.max_lanes > CompiledBackend.max_lanes

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("verilated")
        with pytest.raises(ValueError, match="unknown backend"):
            configure("verilated")

    def test_configure_default(self, cores):
        assert default_backend() == "compiled"
        try:
            configure("interpreted")
            assert default_backend() == "interpreted"
            assert resolve_backend(None) is InterpretedBackend
            sim = make_backend(None, cores["flexicore4"])
            assert isinstance(sim, InterpretedBackend)
        finally:
            configure()
        assert default_backend() == "compiled"


def _force_emitter(monkeypatch, emitter):
    """Pin the packed generator's emitter by moving its lane threshold."""
    monkeypatch.setattr(
        packed, "INT_EMITTER_MAX_LANES",
        VECTOR_MAX_LANES if emitter == "int" else 0,
    )


def _multi_defect_lanes(netlist, rng, lanes):
    """``lanes`` fault entries shaped like a wafer: healthy dies, single
    sites, and multi-defect draws of up to four sites."""
    sites = sample_fault_sites(netlist, rng, 10_000)
    entries = []
    for lane in range(lanes):
        count = lane % 5
        chosen = rng.choice(len(sites), size=count, replace=False)
        entries.append([sites[int(i)] for i in chosen] or None)
    return entries


class TestPackedEmitters:
    """The one packed generator: emitter choice, conflicting fault
    pairs, and the int emitter past one 64-bit word."""

    def test_emitter_flips_exactly_at_threshold(self, cores, monkeypatch):
        netlist = cores["flexicore4"]
        limit = INT_EMITTER_MAX_LANES
        assert VectorBackend(netlist, lanes=limit).emitter == "int"
        assert VectorBackend(netlist, lanes=limit + 1).emitter == "array"
        monkeypatch.setattr(packed, "INT_EMITTER_MAX_LANES", 70)
        assert VectorBackend(netlist, lanes=70).emitter == "int"
        assert VectorBackend(netlist, lanes=71).emitter == "array"
        # The registrations differ only in capacity, not in emitter.
        assert CompiledBackend(netlist, lanes=64).emitter == "int"
        assert issubclass(CompiledBackend, PackedBackend)
        assert issubclass(VectorBackend, PackedBackend)

    def test_one_kernel_per_fault_set(self, cores, monkeypatch):
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        program = random_program(isa, np.random.default_rng(1), length=16)
        builds = []
        original = PackedBackend._specialize

        def counting(self):
            builds.append(self.lanes)
            return original(self)

        monkeypatch.setattr(PackedBackend, "_specialize", counting)
        sites = sample_fault_sites(netlist, np.random.default_rng(2), 20)
        for backend in ("compiled", "vector"):
            builds.clear()
            run_cross_check_batch(netlist, isa, program,
                                  max_instructions=20, faults=sites,
                                  backend=backend)
            assert builds == [20]
        builds.clear()
        run_cross_check(netlist, isa, program, max_instructions=20,
                        backend="vector")
        assert builds == [1]

    @pytest.mark.parametrize("core", FAB_CORES)
    @pytest.mark.parametrize("emitter", ["int", "array"])
    def test_conflicting_pairs_last_wins(self, cores, core, emitter,
                                         monkeypatch):
        """A lane naming one gate stuck-at-1 then stuck-at-0 (or the
        reverse) behaves like the interpreter: the last pair wins."""
        netlist = cores[core]
        isa = get_isa(core)
        rng = np.random.default_rng(191)
        program = random_program(isa, rng, length=32)
        inputs = _random_inputs(rng, isa.word_bits, 16)
        comb = [g.name for g in netlist.gates if not g.sequential]
        flop = next(g.name for g in netlist.gates if g.sequential)
        lanes = [None]
        for gate in (comb[len(comb) // 2], comb[-1], flop):
            lanes += [[(gate, 1), (gate, 0)], [(gate, 0), (gate, 1)]]
        lanes.append([(comb[0], 1), (flop, 0), (comb[0], 0)])

        reference = run_cross_check_batch(
            netlist, isa, program, inputs=inputs, max_instructions=40,
            faults=lanes, backend="interpreted",
        )
        _force_emitter(monkeypatch, emitter)
        for backend in ("compiled", "vector"):
            assert run_cross_check_batch(
                netlist, isa, program, inputs=inputs, max_instructions=40,
                faults=lanes, backend=backend,
            ) == reference
        # Each conflicting lane equals its last pair alone.
        for entry, result in zip(lanes[1:7], reference[1:7]):
            alone = run_cross_check(
                netlist, isa, program, inputs=inputs, max_instructions=40,
                fault=entry[-1], backend="interpreted",
            )
            assert result == alone

    @pytest.mark.parametrize("lanes", [65, 124, 129])
    def test_int_emitter_past_one_word_matches_interpreter(self, cores,
                                                           lanes):
        """Multi-defect campaigns wider than a machine word: every lane's
        mismatch count, first-mismatch text and toggle statistics equal
        a serial interpreted run."""
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(lanes)
        program = random_program(isa, rng, length=32)
        inputs = _random_inputs(rng, isa.word_bits, 24)
        faults = _multi_defect_lanes(netlist, rng, lanes)
        assert VectorBackend(netlist, lanes=lanes).emitter == "int"
        packed_results = run_cross_check_batch(
            netlist, isa, program, inputs=inputs, max_instructions=30,
            faults=faults, backend="vector",
        )
        reference = run_cross_check_batch(
            netlist, isa, program, inputs=inputs, max_instructions=30,
            faults=faults, backend="interpreted",
        )
        assert packed_results == reference
        assert any(not result.passed for result in reference[64:])

    @pytest.mark.parametrize("lanes", [65, 124, 129])
    def test_int_emitter_per_lane_inputs_match_interpreter(self, cores,
                                                           lanes):
        """set_input_lanes stimulus with multi-defect lanes, past bit 63:
        pins and per-gate toggles equal per-lane interpreted runs."""
        netlist = cores["flexicore4"]
        rng = np.random.default_rng(1000 + lanes)
        faults = _multi_defect_lanes(netlist, rng, lanes)
        sim = VectorBackend(netlist, lanes=lanes)
        assert sim.emitter == "int"
        sim.set_fault_lanes(faults)
        serial = []
        for entry in faults:
            reference = InterpretedBackend(netlist)
            reference.set_fault_lanes([entry])
            serial.append(reference)
        for _ in range(12):
            instr = int(rng.integers(0, 256))
            iports = rng.integers(0, 16, size=lanes)
            sim.set_inputs({"instr": instr})
            sim.set_input_lanes({"iport": iports})
            sim.step()
            for lane, reference in enumerate(serial):
                reference.set_inputs({
                    "instr": instr, "iport": int(iports[lane]),
                })
                reference.step()
        pcs = sim.read_bus_lanes("pc")
        for lane, reference in enumerate(serial):
            assert pcs[lane] == reference.read_bus("pc")
            assert sim.read_bus("oport", lane=lane) == \
                reference.read_bus("oport")
            assert sim.toggles(lane) == reference.toggles()
            assert sim.toggle_coverage(lane) == reference.toggle_coverage()
