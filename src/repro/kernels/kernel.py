"""Kernel framework: targets, assembly and golden-model checking.

A :class:`Kernel` owns three things:

- a *source generator* producing macro-assembly for an accumulator target
  (and optionally load-store assembly for the Section 6.2 study),
- a *golden reference* implemented in plain Python, used to verify every
  simulated run exactly (the analogue of the paper's RTL-vs-chip test
  comparison), and
- an *input generator* for sweeping/sampling the input space the way
  Section 5.2 does.

A :class:`Target` bundles an ISA with its macro library, so the same
kernel assembles for the base FlexiCore4, any extension subset, and the
load-store machine.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.asm import Assembler
from repro.kernels.macros import build_library, loadstore_library
from repro.sim import run_program


@dataclass(frozen=True)
class Target:
    """An ISA plus the macro library that papers over its feature gaps."""

    isa: object
    library: object

    @classmethod
    def for_isa(cls, isa):
        if isa.accumulator:
            return cls(isa=isa, library=build_library(isa))
        return cls(isa=isa, library=loadstore_library(isa))

    @classmethod
    def named(cls, isa_name):
        from repro.isa import get_isa

        return cls.for_isa(get_isa(isa_name))

    @property
    def name(self):
        return self.isa.name

    def assemble(self, source, source_name="<kernel>"):
        return Assembler(self.isa, self.library).assemble(source, source_name)


@dataclass
class Kernel:
    """One benchmark of Table 6."""

    name: str
    app_type: str  # 'Interactive' | 'Streaming' | 'Reactive'
    description: str
    source_fn: Callable[[Target], str]
    reference_fn: Callable[[List[int]], List[int]]
    input_fn: Callable[[object, int], List[int]]  # (rng, n) -> samples
    #: Inputs consumed per logical "transaction" (1 for streaming kernels).
    inputs_per_transaction: int = 1
    #: Kernels that cannot run on a given target return None from source_fn.
    loadstore_source_fn: Optional[Callable[[Target], str]] = None

    def source(self, target):
        if target.isa.accumulator:
            return self.source_fn(target)
        if self.loadstore_source_fn is None:
            raise ValueError(
                f"kernel '{self.name}' has no load-store implementation"
            )
        return self.loadstore_source_fn(target)

    def program(self, target):
        """Assemble this kernel for ``target``."""
        return target.assemble(self.source(target), source_name=self.name)

    def expected(self, inputs):
        return self.reference_fn(list(inputs))

    def generate_inputs(self, rng, transactions):
        return self.input_fn(rng, transactions)

    def run(self, target, inputs, max_cycles=2_000_000, fastpath=None,
            program=None):
        """Assemble, simulate on ``inputs`` and return (result, outputs).

        The program is driven until it reads past the final sample (the
        idiomatic end for streaming kernels) or halts.  ``fastpath=False``
        forces the reference step loop (the default runs the predecoded
        dispatch, which is bit-identical).  ``program`` is this kernel
        already assembled for ``target`` (from :meth:`program`); a
        caller that also needs the program passes it in instead of
        assembling twice.
        """
        if program is None:
            program = self.program(target)
        result, sink = run_program(
            program, inputs=inputs, max_cycles=max_cycles,
            fastpath=fastpath,
        )
        return result, sink.values

    def check(self, target, inputs, max_cycles=2_000_000, fastpath=None,
              program=None):
        """Run and compare against the golden model.

        Returns the :class:`~repro.sim.simulator.RunResult`; raises
        AssertionError with a diff on mismatch.  ``program`` is as for
        :meth:`run`.
        """
        result, outputs = self.run(
            target, inputs, max_cycles=max_cycles, fastpath=fastpath,
            program=program,
        )
        expected = self.expected(inputs)
        if outputs != expected:
            raise AssertionError(
                f"{self.name} on {target.name}: output mismatch\n"
                f"  inputs:   {inputs}\n"
                f"  expected: {expected}\n"
                f"  got:      {outputs}"
            )
        return result
