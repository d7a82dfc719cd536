"""The per-process DSE memos: one golden-checked kernel run per
(ISA, kernel, transactions, seed, fastpath), shared by every
microarchitecture and bus variant of the ISA, and a bounded netlist
memo."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.asm import Assembler
from repro.dse import evaluate
from repro.dse.evaluate import (
    _design_static,
    _evaluate_design,
    _kernel_profile,
    _run_kernel,
    evaluate_design,
)
from repro.dse.search import SearchConfig, search
from repro.dse.space import DesignSpace, Genome
from repro.engine import Engine, ResultCache
from repro.kernels.kernel import Target
from repro.kernels.suite import SUITE, get_kernel

TRANSACTIONS = 3
SEED = 2022

#: Three designs on one ISA: two microarchitectures, one narrow bus.
ACC_SC = Genome("acc", "SC", ("adc", "shift")).design()
ACC_MC = Genome("acc", "MC", ("adc", "shift")).design()


@pytest.fixture(autouse=True)
def cold_memo():
    _kernel_profile.cache_clear()
    yield
    _kernel_profile.cache_clear()


@pytest.fixture
def assemblies(monkeypatch):
    """Counts :meth:`Assembler.assemble` calls."""
    calls = []
    original = Assembler.assemble

    def counting(self, *args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("source_name"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Assembler, "assemble", counting)
    return calls


def _evaluate(design, **kwargs):
    return evaluate_design(design, transactions=TRANSACTIONS, seed=SEED,
                           **kwargs)


class TestKernelProfileMemo:
    def test_cold_warm_and_cleared_evaluations_agree(self):
        cold = _evaluate(ACC_SC)
        assert _kernel_profile.cache_info().misses == len(SUITE)
        warm = _evaluate(ACC_SC)
        assert _kernel_profile.cache_info().hits == len(SUITE)
        _kernel_profile.cache_clear()
        again = _evaluate(ACC_SC)
        assert cold == warm == again

    def test_fastpath_off_is_memoized_separately(self):
        default = _evaluate(ACC_SC)
        reference = _evaluate(ACC_SC, fastpath=False)
        info = _kernel_profile.cache_info()
        assert (info.hits, info.currsize) == (0, 2 * len(SUITE))
        assert reference == default

    def test_microarch_and_bus_variants_assemble_nothing(self, assemblies):
        _evaluate(ACC_SC)
        assert assemblies
        del assemblies[:]
        mc = _evaluate(ACC_MC)
        bus8 = _evaluate(ACC_SC, bus_bits=8)
        assert assemblies == []
        _kernel_profile.cache_clear()
        assert _evaluate(ACC_MC) == mc
        assert _evaluate(ACC_SC, bus_bits=8) == bus8

    def test_fresh_isa_assembles_each_kernel_once(self, assemblies):
        _evaluate_design(ACC_SC, TRANSACTIONS, SEED, 4.5, None)
        assert sorted(assemblies) == sorted(
            [kernel.name for kernel in SUITE] + ["xorshift-probe"]
        )

    def test_mutating_returned_stats_changes_nothing(self):
        kernel = get_kernel("XorShift8")
        target = Target.named(ACC_SC.isa_name)
        before = _evaluate(ACC_SC)
        _, _, stats = _run_kernel(kernel, target, TRANSACTIONS, SEED)
        stats.instructions = 0
        stats.taken_branches = 10**6
        stats.by_size.clear()
        stats.by_class.clear()
        assert _evaluate(ACC_SC) == before
        _, _, again = _run_kernel(kernel, target, TRANSACTIONS, SEED)
        assert again.instructions == before.kernels[kernel.name] \
            .dynamic_instructions
        assert again.by_size

    def test_failed_golden_check_raises_every_time(self, monkeypatch):
        kernel = get_kernel("Thresholding")
        reference = kernel.reference_fn
        monkeypatch.setattr(
            kernel, "reference_fn",
            lambda inputs: [value ^ 1 for value in reference(inputs)],
        )
        target = Target.named(ACC_SC.isa_name)
        for _ in range(2):
            with pytest.raises(AssertionError, match="output mismatch"):
                _run_kernel(kernel, target, TRANSACTIONS, SEED)
        assert _kernel_profile.cache_info().currsize == 0

    def test_threads_evaluating_one_design_agree(self):
        start = threading.Barrier(4)

        def evaluate_after_barrier(_):
            start.wait()
            return _evaluate(ACC_SC)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(evaluate_after_barrier, range(4)))
        assert all(result == results[0] for result in results)
        _kernel_profile.cache_clear()
        assert _evaluate(ACC_SC) == results[0]

    def test_memos_are_bounded(self):
        # Above one budget-96 search's 85 distinct designs, but finite.
        assert 96 <= _design_static.cache_info().maxsize < 1024
        # Every (ISA, kernel) pair of the default space at two
        # fidelities fits.
        isas = {genome.design().isa_name
                for genome in DesignSpace().enumerate()}
        profile_bound = _kernel_profile.cache_info().maxsize
        assert 2 * len(isas) * len(SUITE) <= profile_bound < 10**5


class TestCacheKeyStability:
    def test_memo_free_cache_replays_fully_and_identically(
            self, tmp_path, monkeypatch):
        """A result cache filled with every job computed from a cold
        memo (as an earlier memo-less build would fill it) is 100% hits
        for a memo-warm search, with identical score documents."""
        original = evaluate.evaluate_design

        def evaluate_cold(*args, **kwargs):
            _kernel_profile.cache_clear()
            return original(*args, **kwargs)

        cfg = SearchConfig(
            budget=6, seed=7, population=4,
            space=DesignSpace(features=("adc", "shift"),
                              microarchs=("SC", "MC"), bus_bits=(0, 8)),
        )
        root = tmp_path / "cache"
        monkeypatch.setattr(evaluate, "evaluate_design", evaluate_cold)
        filled = search(cfg, engine=Engine(jobs=1, cache=ResultCache(root)))
        monkeypatch.undo()

        replay = search(cfg, engine=Engine(jobs=1, cache=ResultCache(root)))
        assert replay.cache_misses == 0
        assert replay.cache_hits == replay.evaluations == filled.evaluations
        assert replay.scored == filled.scored
        assert replay.frontier_names() == filled.frontier_names()

        fresh = search(cfg, engine=Engine(
            jobs=1, cache=ResultCache(tmp_path / "fresh")))
        assert fresh.scored == filled.scored
