"""Die test-vector methodology (Section 4.1).

The paper probes every die with >100,000 cycles of directed plus random
vectors derived from RTL simulation, requiring gates to toggle ("gates
toggling on average 24,060 times, and all gates toggle at least once")
and counting any output mismatch as a failure.

This module builds the same kind of vector suite as *programs* (the
natural stimulus for a processor with an off-chip instruction bus), and
validates the yield model's core assumption -- that structural defects
are observable at the outputs -- by injecting stuck-at faults into the
gate-level netlist and measuring the detection rate.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from repro import obs
from repro.asm import assemble
from repro.engine import job_function
from repro.netlist.backend import default_backend, resolve_backend
from repro.netlist.verify import run_cross_check, run_cross_check_batch


def fault_chunk_size(backend=None):
    """Fault-campaign chunk size for ``backend``: its lane capacity.

    Campaign drivers size their chunks from the *selected* backend's
    ``max_lanes`` (64 for compiled, 65,536 for vector) rather than a
    hardcoded word width, so the final chunk carries exactly the
    leftover faults instead of padding idle lanes.
    """
    return max(1, resolve_backend(backend).max_lanes)


def directed_program(isa):
    """A short program touching every instruction class: ALU ops in both
    addressing modes, loads/stores over the whole memory, and both branch
    outcomes -- the "directed" half of the Section 4.1 vectors."""
    lines = ["start:"]
    words = isa.mem_words
    # Fill and read back every memory word through the output port, so
    # storage and addressing faults reach the pins.
    for addr in range(2, words):
        lines += [
            "    load 0",
            f"    addi {(5 * addr) % 16}",
            f"    store {addr}",
        ]
    for addr in range(2, words):
        lines += [f"    load {addr}", "    store 1"]
    # Exercise every ALU function in both addressing modes, observing
    # each result.
    for addr in range(2, words):
        for op in ("add", "nand", "xor"):
            lines += [f"    {op} {addr}", "    store 1"]
    for imm in (0, 1, 5, 8, 10, 15):
        lines += [f"    addi {imm}", "    store 1",
                  f"    nandi {imm}", "    store 1",
                  f"    xori {imm}", "    store 1"]
    # Both branch directions, from both accumulator sign states.
    lines += [
        "    load 0",
        "    store 1",
        "    nandi 0",         # acc = 0xF...: negative
        "    brn taken",
        "    store 1",         # (not reached when healthy)
        "taken:",
        "    xori 8",          # clear the MSB on a 4-bit machine
        "    brn start",       # must fall through when positive
        "    store 1",
        "    nandi 0",
        "    brn start",
    ]
    return assemble("\n".join(lines), isa, source_name="directed")


def random_program(isa, rng, length=96):
    """Random well-formed instructions (the "random" vector half).

    Branches target random earlier/later addresses within the page, so
    control flow wanders but never leaves the program.
    """
    choices = [m for m in isa.mnemonics() if m not in ("ldb",)]
    lines = []
    for index in range(length):
        mnemonic = choices[int(rng.integers(0, len(choices)))]
        spec = isa.spec(mnemonic)
        operands = []
        for operand in spec.operands:
            if operand.kind.name == "TARGET":
                operands.append(str(int(rng.integers(0, length))))
            else:
                lo = max(operand.lo, 0)
                operands.append(str(int(rng.integers(lo, operand.hi + 1))))
        lines.append(f"    {mnemonic} " + ", ".join(operands))
    return assemble("\n".join(lines), isa, source_name="random")


@dataclass
class FaultStudyResult:
    """Outcome of a stuck-at fault-injection campaign."""

    injected: int
    detected: int
    details: List[str]

    @property
    def coverage(self):
        return self.detected / self.injected if self.injected else 0.0


def sample_fault_sites(netlist, rng, count):
    """``count`` *distinct* stuck-at sites drawn over every gate.

    A site is a (gate name, stuck value) pair; both combinational gates
    and sequential DFFs are candidates (a stuck flop is just as much a
    structural defect as a stuck NAND).  Sampling without replacement
    keeps duplicate sites from inflating apparent coverage; the draw is
    clamped to the number of available sites.
    """
    # Site 2*g + s is gate g stuck-at s; index arithmetic instead of a
    # materialized site list (this runs once per defective die).
    gates = netlist.gates
    count = min(count, 2 * len(gates))
    if count == 0:
        return []
    chosen = rng.choice(2 * len(gates), size=count, replace=False)
    return [(gates[index // 2].name, index % 2) for index in chosen.tolist()]


def fault_injection_study(netlist, isa, rng, faults=20,
                          max_instructions=300, backend=None,
                          fastpath=True):
    """Inject random stuck-at faults and check the vectors catch them.

    This grounds the yield model: a die with any structural defect is
    assumed non-functional, which is only fair if the test vectors would
    actually observe the defect.

    The fault list is packed into the lanes of the selected
    :mod:`repro.netlist.backend`, chunked by :func:`fault_chunk_size`
    (the backend's lane capacity: 64 faults per run on ``compiled``,
    the whole campaign in one run on ``vector``).  ``fastpath``
    selects the predecoded ISA replay (``False`` keeps the
    per-instruction decode reference).
    """
    program = directed_program(isa)
    inputs = [int(rng.integers(0, 16)) for _ in range(64)]
    sites = sample_fault_sites(netlist, rng, faults)
    chunk = fault_chunk_size(backend)
    detected = 0
    details = []
    with obs.span("fab.fault_injection", faults=len(sites),
                  chunks=-(-len(sites) // chunk) if sites else 0,
                  backend=backend or default_backend()):
        results = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=max_instructions,
            faults=sites, backend=backend, fastpath=fastpath,
        )
        for (gate_name, stuck), result in zip(sites, results):
            caught = not result.passed
            detected += caught
            details.append(
                f"{gate_name} stuck-at-{stuck}: "
                f"{'DETECTED' if caught else 'missed'}"
            )
    if obs.active():
        registry = obs.registry()
        registry.counter(
            "fab_faults_injected_total", "Stuck-at faults injected",
        ).inc(len(sites))
        registry.counter(
            "fab_faults_detected_total",
            "Injected faults observed at the outputs",
        ).inc(detected)
    return FaultStudyResult(
        injected=len(sites), detected=detected, details=details
    )


def toggle_coverage_study(netlist, isa, rng, instructions=2000,
                          backend=None, fastpath=True):
    """Run the directed program long enough to measure toggle coverage,
    the Section 4.1 metric."""
    program = directed_program(isa)
    inputs = [int(rng.integers(0, 16)) for _ in range(4096)]
    with obs.span("fab.toggle_coverage", instructions=instructions,
                  backend=backend or default_backend()):
        result = run_cross_check(
            netlist, isa, program, inputs=inputs,
            max_instructions=instructions, backend=backend,
            fastpath=fastpath,
        )
    return result


@lru_cache(maxsize=None)
def _core_for_testing(core):
    """Per-process memo of a named core's netlist (pool workers build
    each core at most once)."""
    from repro.netlist.cores import build_core

    return build_core(core)


@job_function("fab.fault_study", version="2")
def fault_study_job(params, seed):
    """Engine job: one fault-injection campaign on a registered core.

    The payload names the core, the ISA, the fault count *and the
    simulation backend*, so the campaign runs identically (and caches
    under a distinct key) whichever worker process picks it up.

    Version 2: campaign chunks are sized from the selected backend's
    lane capacity (see :func:`fault_chunk_size`) -- under the vector
    backend a whole campaign is one simulation run, and the per-chunk
    obs accounting differs from version 1's fixed 64-lane chunking.
    """
    from repro.isa import get_isa

    netlist = _core_for_testing(params["core"])
    study = fault_injection_study(
        netlist, get_isa(params["isa"]), seed.rng(),
        faults=params["faults"],
        max_instructions=params.get("max_instructions", 300),
        backend=params["backend"],
        fastpath=params.get("fastpath", True),
    )
    return {
        "injected": study.injected,
        "detected": study.detected,
        "coverage": study.coverage,
        "details": study.details,
    }
