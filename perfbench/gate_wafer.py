"""``gate_wafer``: the gate-level Table 5 study, as
``repro yield --gate-level --fault-check 20`` runs it (serial engine,
cache off, each library call on its default backend)."""

import time

import numpy as np

from repro.engine import Engine
from repro.experiments.paper_data import TABLE5
from repro.fab.process import process_for
from repro.fab.testing import directed_program
from repro.fab.yield_model import (
    FMAX_HZ,
    _core_static,
    run_fault_coverage,
    run_gate_yield_study,
)
from repro.isa import get_isa
from repro.netlist.verify import run_cross_check_batch

from harness import median, rep_seed

#: Why this workload is in the benchmark.
WHY = ("gate simulation is ~95% of each wafer job; the engine is "
       "bypassed; 124-lane wafers and 20-fault campaigns sit on either "
       "side of the backends' lane-count trade-off")

CORES = ("flexicore4", "flexicore8")
#: Wafers per core: the ``repro yield`` default.
WAFERS = 6
FAULTS = 20
VOLTAGES = (3.0, 4.5)

#: Which metrics fill the end-to-end slots every workload reports.
HEADLINE = {"work_per_s": "dies_per_s", "op_p50_ms": "study_p50_ms",
            "second_path_ms": "fault_campaign_p50_ms"}


class GateWafer:
    name = "gate_wafer"
    workers = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.engine = None
        self.studies = None
        self.coverage = None
        self.wafer_s = []
        self.fault_s = []
        self.dies = 0
        self.faults = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def setup(self):
        """Netlist builds, STA and a first (untimed) pass through each
        gate-sim backend the study uses."""
        self.engine = Engine(jobs=1, cache=None)
        for core in CORES:
            run_gate_yield_study(process_for(core), seed=self.seed,
                                 core=core, wafers=1, engine=self.engine)
        run_fault_coverage(seed=self.seed, faults=1, engine=self.engine)

    def _attempt(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # counted as failed; the run goes on
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def run(self, seconds):
        """Repeat the study until ``seconds`` have passed, each
        repetition on its own inputs; every call starts again from the
        first repetition's inputs, so at least that one runs."""
        units, started = 0, time.perf_counter()
        deadline, repetition = started + seconds, 0
        while repetition == 0 or time.perf_counter() < deadline:
            seed = rep_seed(self.seed, repetition)
            repetition += 1
            t0 = time.perf_counter()
            studies = {
                core: self._attempt(lambda core=core: run_gate_yield_study(
                    process_for(core), seed=seed, core=core,
                    wafers=WAFERS, engine=self.engine,
                ))
                for core in CORES
            }
            t1 = time.perf_counter()
            coverage = self._attempt(lambda: run_fault_coverage(
                seed=seed, faults=FAULTS, engine=self.engine,
            ))
            t2 = time.perf_counter()
            if None in studies.values() or coverage is None:
                continue
            self.wafer_s.append(t1 - t0)
            self.fault_s.append(t2 - t1)
            self.dies = sum(len(wafer["dies"]) for study in studies.values()
                            for wafer in study["wafers"])
            self.faults = sum(c["injected"] for c in coverage.values())
            if repetition == 1:
                self.studies, self.coverage = studies, coverage
            units += 1
        return units, time.perf_counter() - started

    def end_to_end(self):
        return {
            "dies_per_s": (median([self.dies / s for s in self.wafer_s]),
                           "dies/s"),
            "faults_per_s": (
                median([self.faults / s for s in self.fault_s]),
                "faults/s"),
            "study_p50_ms": (median(self.wafer_s) * 1e3, "ms"),
            "fault_campaign_p50_ms": (median(self.fault_s) * 1e3, "ms"),
            "yield_err_pp": (self.yield_err_pp(), "pp"),
        }

    def yield_err_pp(self):
        """Mean |simulated - paper| Table 5 yield of the first
        repetition, in percentage points, over both cores x both
        voltages x {full, inclusion}."""
        errors = []
        for core in CORES:
            paper = TABLE5[core.replace("flexicore", "FlexiCore")]
            summary = self.studies[core]["summary"]
            for voltage in VOLTAGES:
                errors.append(abs(100 * summary[voltage]["full"]
                                  - paper["full"][voltage]))
                errors.append(abs(100 * summary[voltage]["inclusion"]
                                  - paper["incl"][voltage]))
        return float(np.mean(errors))

    def checks(self):
        """On the first repetition's outputs."""
        if self.studies is None:
            return ["no complete gate-level study"]
        problems = []
        for core in CORES:
            netlist, report = _core_static(core)
            isa = get_isa(core)
            for index, wafer in enumerate(self.studies[core]["wafers"]):
                problems += _replay_sample(netlist, isa, core, index, wafer)
                problems += _gate_vs_analytic(report, core, index, wafer)
        for core in CORES:
            injected = (self.coverage or {}).get(core, {}).get("injected")
            if injected != FAULTS:
                problems.append(f"{core}: fault campaign injected "
                                f"{injected}, expected {FAULTS}")
        return problems

    def digest_doc(self):
        """The first repetition's simulated outputs."""
        return _outputs(self.studies, self.coverage)

    def counters(self):
        metrics = self.engine.metrics
        return {"engine.retries": metrics.retries,
                "engine.failures": metrics.failures}

    def close(self):
        if self.engine is not None:
            self.engine.close()


def _outputs(studies, coverage):
    """The simulated statistics: per-die mismatch counts, the Table 5
    buckets, and each core's fault-campaign verdicts."""
    return {
        "mismatches": {
            core: [[die["mismatches"] for die in wafer["dies"]]
                   for wafer in study["wafers"]]
            for core, study in studies.items() if study
        },
        "buckets": {
            core: [{f"{v:g}": bucket for v, bucket in w["buckets"].items()}
                   for w in study["wafers"]]
            for core, study in studies.items() if study
        },
        "coverage": {
            core: {"injected": c["injected"], "detected": c["detected"]}
            for core, c in (coverage or {}).items()
        },
    }


def _replay_sample(netlist, isa, core, index, wafer):
    """Replay the wafer's first defective and first healthy die on the
    interpreted reference; mismatch counts must agree bit for bit."""
    dies = wafer["dies"]
    sample = ([d for d in dies if d["fault_sites"]][:1]
              + [d for d in dies if not d["fault_sites"]][:1])
    replayed = run_cross_check_batch(
        netlist, isa, directed_program(isa), inputs=wafer["inputs"],
        max_instructions=wafer["max_instructions"],
        faults=[d["fault_sites"] or None for d in sample],
        backend="interpreted",
    )
    return [
        f"{core} wafer {index} die ({d['row']},{d['col']}): interpreted "
        f"{outcome.mismatches} mismatches, campaign {d['mismatches']}"
        for d, outcome in zip(sample, replayed)
        if outcome.mismatches != d["mismatches"]
    ]


def _gate_vs_analytic(report, core, index, wafer):
    """Gate-level yield can only exceed the analytic model's on the
    same wafer (a defect the vectors miss is a test escape)."""
    dies = wafer["dies"]
    defects = np.array([d["defects"] for d in dies])
    speed = np.array([d["speed_factor"] for d in dies])
    problems = []
    for voltage, bucket in wafer["buckets"].items():
        period = report.period_s(voltage, 1.0)
        meets = 1.0 / (period * speed) >= FMAX_HZ
        analytic = int(np.sum((defects == 0) & meets))
        if bucket["full_pass"] < analytic:
            problems.append(
                f"{core} wafer {index} @ {voltage:g} V: gate-level "
                f"{bucket['full_pass']} functional < analytic {analytic}"
            )
    return problems
