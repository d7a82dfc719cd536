"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces each layer's public entry points, at the
names their callers look up, with wrappers that open a
``perfbench.<layer>`` span through :func:`repro.obs.span`.  The
wrappers do nothing extra while obs tracing is off.  Spans stay in
memory; :func:`layer_metrics` turns them into the per-layer metrics
when the run ends.

Pool workers: the engine's ``local`` executor forks its workers from
the benchmark process, so wrappers installed before a pool starts are
live in its workers too.  Their spans come back with each job's
results through the engine's existing obs bridge
(``obs.worker_context`` -> ``obs.leave_worker`` -> ``obs.absorb``),
which is how ``dse_search`` is traced with ``Engine(jobs=2)``.
"""

import functools
import importlib
import inspect
import time

from repro import obs

from harness import median

PREFIX = "perfbench."


def _after_run_program(value):
    result, _sink = value
    return {"instructions": int(result.instructions)}


def _after_cross_check(value):
    cycles = value[0].cycles if value else 0
    return {"lanes": len(value), "lane_cycles": len(value) * cycles}


def _after_cache_get(value):
    return {"hit": bool(value[0])}


def _after_search(value):
    return {"generations": value.generations}


#: (module, attribute path, layer, operation, result -> span attrs).
#: Each entry is the name a caller resolves at call time: a class
#: attribute, or the module global a caller's import bound.
TARGETS = (
    ("repro.asm.assembler", "Assembler.assemble", "asm", "assemble", None),
    ("repro.kernels.kernel", "Kernel.check", "kernels", "check", None),
    ("repro.kernels.kernel", "Kernel.generate_inputs", "kernels",
     "inputs", None),
    ("repro.kernels.kernel", "run_program", "sim", "run",
     _after_run_program),
    ("repro.dse.designs", "DesignPoint.build_netlist", "netlist", "build",
     None),
    ("repro.netlist.cores", "build_core", "netlist", "build", None),
    ("repro.dse.evaluate", "analyze", "netlist", "sta", None),
    ("repro.netlist.sta", "analyze", "netlist", "sta", None),
    ("repro.fab.yield_model", "run_cross_check_batch", "gatesim", "wafer",
     _after_cross_check),
    ("repro.fab.testing", "run_cross_check_batch", "gatesim", "campaign",
     _after_cross_check),
    ("repro.fab.yield_model", "fabricate_wafer", "fab", "fabricate", None),
    ("repro.dse.search", "fabricate_wafer", "fab", "fabricate", None),
    ("repro.fab.yield_model", "FabricatedWafer.probe", "fab", "probe",
     None),
    ("repro.fab.yield_model", "gate_probe_wafer", "fab", "probe", None),
    ("repro.engine.scheduler", "Engine.run_graph", "engine", "stage", None),
    ("repro.engine.cache", "ResultCache.get", "engine", "cache_get",
     _after_cache_get),
    ("repro.engine.cache", "ResultCache.put", "engine", "cache_put", None),
    ("repro.dse.search", "search", "dse", "search", _after_search),
    ("repro.service.client", "AsyncServiceClient.run", "service", "run",
     None),
    ("repro.service.client", "AsyncServiceClient.submit", "service", "post",
     None),
    ("repro.service.client", "AsyncServiceClient.status", "service", "get",
     None),
)


def _wrap(fn, layer, op, after):
    name = PREFIX + layer

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not obs.tracing_enabled():
                return await fn(*args, **kwargs)
            with obs.span(name, op=op) as span:
                value = await fn(*args, **kwargs)
                if after is not None:
                    span.set(**after(value))
                return value
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not obs.tracing_enabled():
            return fn(*args, **kwargs)
        with obs.span(name, op=op) as span:
            value = fn(*args, **kwargs)
            if after is not None:
                span.set(**after(value))
            return value
    return wrapper


class LayerTracer:
    """Installs and removes the layer wrappers (see :data:`TARGETS`)."""

    def __init__(self):
        self._saved = []
        self.first_gatesim_s = None

    def install(self):
        if self._saved:
            return
        for module_name, path, layer, op, after in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            wrapped = _wrap(original, layer, op, after)
            if layer == "gatesim":
                wrapped = self._time_first(wrapped)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _time_first(self, fn):
        """Record how long the process's first gate-sim call took,
        whether or not tracing is on (it happens during set-up)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_gatesim_s is not None:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.first_gatesim_s = time.perf_counter() - started
        return wrapper


# ----------------------------------------------------------------------
# Span analysis.
# ----------------------------------------------------------------------

def _interval(record):
    return record["start"], record["start"] + record["wall_s"]


def covered(intervals, lo=None, hi=None):
    """Length of the union of ``intervals``, clipped to [lo, hi]."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total, cur_start, cur_end = 0.0, None, None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records):
    """``{span id: self seconds}`` for every layer span.

    A layer span's self time is its duration minus the part of it
    covered by its nearest layer-span descendants, found through any
    library spans in between and across processes.
    """
    children = {}
    for record in records:
        children.setdefault(record.get("parent"), []).append(record)

    def nearest_layer_descendants(record):
        found, stack = [], list(children.get(record["id"], ()))
        while stack:
            child = stack.pop()
            if child["name"].startswith(PREFIX):
                found.append(child)
            else:
                stack.extend(children.get(child["id"], ()))
        return found

    out = {}
    for record in records:
        if not record["name"].startswith(PREFIX):
            continue
        lo, hi = _interval(record)
        inner = [_interval(r) for r in nearest_layer_descendants(record)]
        out[record["id"]] = record["wall_s"] - covered(inner, lo, hi)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records, setup_records, counters, workers,
                  first_gatesim_s, phase_interval):
    """The per-layer metrics of one traced run.

    ``records`` are the traced phase's span records (benchmark process
    and pool workers) and ``setup_records`` those of the traced set-up,
    which count only towards the ``netlist`` metrics (a core built once
    per process is built during set-up); ``counters`` maps obs counter
    names to totals; ``phase_interval`` is the traced phase's
    (start, end) wall-clock window; ``workers`` the engine worker count.
    """
    netlist_records = setup_records + records
    netlist_selfs = self_times(netlist_records)
    netlist_spans = {
        op: [r for r in netlist_records
             if r["name"] == PREFIX + "netlist"
             and (r.get("attrs") or {}).get("op") == op]
        for op in ("build", "sta")
    }
    selfs = self_times(records)
    layer_spans = {}
    for record in records:
        name = record["name"]
        if name.startswith(PREFIX):
            layer = name[len(PREFIX):]
            op = (record.get("attrs") or {}).get("op")
            layer_spans.setdefault((layer, op), []).append(record)

    def spans(layer, op):
        return layer_spans.get((layer, op), [])

    def self_sum(layer, *ops):
        return sum(selfs[r["id"]] for op in ops for r in spans(layer, op))

    def wall_sum(layer, op):
        return sum(r["wall_s"] for r in spans(layer, op))

    def attr_sum(layer, op, key):
        return sum((r.get("attrs") or {}).get(key, 0)
                   for r in spans(layer, op))

    ids = {r["id"]: r for r in records}

    def top_level(record):
        """No layer span above it (library spans do not count)."""
        parent = ids.get(record.get("parent"))
        while parent is not None:
            if parent["name"].startswith(PREFIX):
                return False
            parent = ids.get(parent.get("parent"))
        return True

    kernel_runs = len(spans("kernels", "check"))
    assembles = len(spans("asm", "assemble"))
    sim_runs = len(spans("sim", "run"))
    instructions = attr_sum("sim", "run", "instructions")
    hits = counters.get("sim_predecode_hits_total", 0)
    builds = counters.get("sim_predecode_builds_total", 0)

    wafer_s = wall_sum("gatesim", "wafer")
    campaign_s = wall_sum("gatesim", "campaign")

    fab_fabricate = self_sum("fab", "fabricate")
    fab_probe = self_sum("fab", "probe")
    wafers = len(spans("fab", "fabricate"))

    stages = spans("engine", "stage")
    job_compute = sum(r["wall_s"] for r in records
                      if r["name"] == "engine.job")
    jobs = sum(1 for r in records if r["name"] == "engine.job")
    dispatch = max(0.0, sum(r["wall_s"] for r in stages) * workers
                   - job_compute)
    gets = spans("engine", "cache_get")
    get_hits = sum(1 for r in gets if (r.get("attrs") or {}).get("hit"))

    lo, hi = phase_interval
    tops = [_interval(r) for r in records
            if r["name"].startswith(PREFIX) and top_level(r)]

    return {
        "asm.assemble_calls": (assembles, "count"),
        "asm.assemble_s": (self_sum("asm", "assemble"), "s"),
        "asm.assembles_per_kernel_run": (_ratio(assembles, kernel_runs),
                                         "ratio"),
        "kernels.runs": (kernel_runs, "count"),
        "kernels.check_self_s": (self_sum("kernels", "check", "inputs"),
                                 "s"),
        "sim.runs": (sim_runs, "count"),
        "sim.instructions": (instructions, "count"),
        "sim.instructions_per_s": (
            _ratio(instructions, self_sum("sim", "run")), "instr/s"),
        "sim.predecode_hit_ratio": (_ratio(hits, hits + builds), "ratio"),
        "netlist.builds": (len(netlist_spans["build"]), "count"),
        "netlist.build_s": (
            sum(netlist_selfs[r["id"]] for r in netlist_spans["build"]),
            "s"),
        "netlist.sta_s": (
            sum(netlist_selfs[r["id"]] for r in netlist_spans["sta"]), "s"),
        "gatesim.wafer_lane_cycles_per_s": (
            _ratio(attr_sum("gatesim", "wafer", "lane_cycles"), wafer_s),
            "lane-cycles/s"),
        "gatesim.campaign_lane_cycles_per_s": (
            _ratio(attr_sum("gatesim", "campaign", "lane_cycles"),
                   campaign_s),
            "lane-cycles/s"),
        "gatesim.self_s": (self_sum("gatesim", "wafer", "campaign"), "s"),
        "gatesim.first_call_s": (first_gatesim_s or 0.0, "s"),
        "gatesim.settle_passes": (
            counters.get("gate_settle_passes_total", 0), "count"),
        "gatesim.gate_evals": (
            counters.get("gate_evaluations_total", 0), "count"),
        "fab.fabricate_s": (fab_fabricate, "s"),
        "fab.probe_s": (fab_probe, "s"),
        "fab.mc_dies_per_s": (
            _ratio(wafers * dies_per_wafer(), fab_fabricate + fab_probe),
            "dies/s"),
        "engine.jobs": (jobs, "count"),
        "engine.dispatch_s": (dispatch, "s"),
        "engine.dispatch_per_job_ms": (_ratio(dispatch, jobs) * 1e3, "ms"),
        "engine.cache_get_p50_us": (
            median([r["wall_s"] for r in gets]) * 1e6, "us"),
        "engine.cache_put_p50_us": (
            median([r["wall_s"] for r in spans("engine", "cache_put")])
            * 1e6, "us"),
        "engine.cache_hit_ratio": (_ratio(get_hits, len(gets)), "ratio"),
        "engine.retries": (counters.get("engine.retries", 0), "count"),
        "engine.failed_jobs": (counters.get("engine.failures", 0), "count"),
        "dse.search_self_s": (self_sum("dse", "search"), "s"),
        "dse.generations": (attr_sum("dse", "search", "generations"),
                            "count"),
        "service.post_p50_ms": (
            median([r["wall_s"] for r in spans("service", "post")]) * 1e3,
            "ms"),
        "service.get_p50_ms": (
            median([r["wall_s"] for r in spans("service", "get")]) * 1e3,
            "ms"),
        "service.polls_per_job": (
            _ratio(len(spans("service", "get")),
                   len(spans("service", "run"))), "count"),
        # Read from the job documents; see service_mix.layer_overrides.
        "service.queue_wait_p50_ms": (0.0, "ms"),
        "service.hit_server_p50_ms": (0.0, "ms"),
        "service.miss_server_p50_ms": (0.0, "ms"),
        "service.refused": (0, "count"),
        "unattributed_s": ((hi - lo) - covered(tops, lo, hi), "s"),
    }


def dies_per_wafer():
    """Die sites on the standard wafer every workload fabricates."""
    from repro.fab.wafer import Wafer

    return len(Wafer.standard())
