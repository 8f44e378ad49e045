"""In-memory span tracer that wraps the program's public layer entry points.

Tracing lives entirely in the benchmark: :meth:`Tracer.install` replaces
each callable in :data:`WRAPPED` with a recording wrapper wherever its
callers look it up (every ``repro`` module attribute bound to the original
function, or the class attribute for methods), and
:meth:`Tracer.uninstall` puts the originals back.  The untraced run never
installs a tracer.

A span is ``(name, start, end, parent, request)``.  Spans nest on one
stack: every wrapped callable is synchronous, or (``ServerHandle.submit``)
a coroutine that does not suspend while its span is open, so a span's
children always lie inside it and never overlap.  Closing a span that is
not the innermost open one raises, so a nesting violation fails the run
instead of producing wrong self times.  ``request`` is the operation the
benchmark client was executing (a design point, a submission, a request),
so the spans of one request share an id.
"""

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List

from repro.serve import latency_percentile


def _count_closures(result, counts):
    counts["compiler.closures.count"] += len(result)


def _count_static(result, counts):
    counts["compiler.codegen.static_instructions"] += sum(
        len(program) for program in result.values()
    )


def _count_sim(result, counts):
    counts["sim.instructions"] += int(result.instructions)
    counts["sim.noc_bytes"] += int(result.noc_bytes)


#: ``(target, attribute, span name, counter hook)``: ``target`` is a module
#: path for functions or ``module:Class`` for methods.  A hook adds counts
#: taken from the call's result at the same boundary.
WRAPPED = [
    ("repro.graph.models", "get_model", "graph.build", None),
    ("repro.compiler.frontend", "condense", "compiler.frontend.condense",
     None),
    ("repro.compiler.strategies", "build_geometries",
     "compiler.geometry.build", None),
    ("repro.compiler.closures", "closure_masks",
     "compiler.closures.enumerate", _count_closures),
    ("repro.compiler.frontend:CondensedGraph", "consumers",
     "compiler.frontend.consumers", None),
    ("repro.compiler.partition", "dp_partition", "compiler.partition", None),
    ("repro.compiler.partition", "greedy_partition", "compiler.partition",
     None),
    ("repro.compiler.mapping", "optimal_mapping", "compiler.mapping", None),
    ("repro.compiler.cost:CostModel", "estimate_stage",
     "compiler.cost.estimate_stage", None),
    ("repro.compiler.plan", "assign_cores_and_rows", "compiler.plan.assign",
     None),
    ("repro.compiler.plan", "layout_global_memory", "compiler.plan.layout",
     None),
    ("repro.compiler.codegen.lowering:ProgramGenerator", "generate",
     "compiler.codegen.generate", _count_static),
    ("repro.compiler.codegen.lowering", "build_global_image",
     "compiler.codegen.image", None),
    ("repro.sim.fastmodel", "analyze_plan", "sim.fastmodel.analyze", None),
    ("repro.sim.fastmodel", "analyze_sharded", "sim.fastmodel.analyze",
     None),
    ("repro.explore", "run_sweep", "explore", None),
    ("repro.sim.chip:ChipSimulator", "__init__", "sim.chip.construct", None),
    ("repro.sim.chip:ChipSimulator", "run", "sim.chip.run", _count_sim),
    ("repro.sim.multichip:MultiChipSimulator", "execute_stream",
     "sim.multichip.execute", None),
    ("repro.sim.functional", "golden_outputs", "sim.functional.golden",
     None),
    ("repro.sim.multichip", "streaming_schedule",
     "sim.multichip.streaming_schedule", None),
    ("repro.serve:Fleet", "submit", "serve.fleet_submit", None),
    ("repro.serve:Fleet", "run_trace", "serve.run_trace", None),
    ("repro.serve:Deployment", "submit", "serve.replica_submit", None),
    ("repro.faults:FailoverEngine", "push", "faults.engine_push", None),
    ("repro.faults:FailoverEngine", "settle_through", "faults.engine_settle",
     None),
    ("repro.faults", "run_fault_schedule", "faults.run_fault_schedule",
     None),
    ("repro.runtime:ServerHandle", "submit", "runtime.submit", None),
    ("repro.runtime:ServerHandle", "_admit_unfaulted", "runtime.admit",
     None),
    ("repro.runtime:ServerHandle", "_absorb_engine", "runtime.admit", None),
    ("repro.runtime:ServerHandle", "_cross_check", "runtime.cross_check",
     None),
]

#: Root span covering the traced part of a worker process.
ROOT_SPAN = "bench.client"

#: Span name -> the per-layer metric reporting its self time.
SELF_METRIC = {
    ROOT_SPAN: "trace.client_self_s",
    "graph.build": "graph.build_s",
    "compiler.frontend.condense": "compiler.frontend.condense_s",
    "compiler.geometry.build": "compiler.geometry.build_s",
    "compiler.closures.enumerate": "compiler.closures.enumerate_s",
    "compiler.frontend.consumers": "compiler.frontend.consumers_s",
    "compiler.partition": "compiler.partition.self_s",
    "compiler.mapping": "compiler.mapping.self_s",
    "compiler.cost.estimate_stage": "compiler.cost.estimate_stage_s",
    "compiler.plan.assign": "compiler.plan.assign_s",
    "compiler.plan.layout": "compiler.plan.layout_s",
    "compiler.codegen.generate": "compiler.codegen.generate_s",
    "compiler.codegen.image": "compiler.codegen.image_s",
    "sim.fastmodel.analyze": "sim.fastmodel.analyze_s",
    "explore": "explore.self_s",
    "sim.chip.construct": "sim.chip.construct_s",
    "sim.chip.run": "sim.chip.run_s",
    "sim.multichip.execute": "sim.multichip.execute_s",
    "sim.functional.golden": "sim.functional.golden_s",
    "sim.multichip.streaming_schedule": "sim.multichip.streaming_schedule_s",
    "serve.fleet_submit": "serve.dispatch_s",
    "serve.run_trace": "serve.run_trace_s",
    "serve.replica_submit": "serve.replica_submit_s",
    "faults.engine_push": "faults.engine_push_s",
    "faults.engine_settle": "faults.engine_settle_s",
    "faults.run_fault_schedule": "faults.run_fault_schedule_s",
    "runtime.submit": "runtime.submit_s",
    "runtime.admit": "runtime.admit_s",
    "runtime.cross_check": "runtime.cross_check_s",
}

#: Span name -> the per-layer metric counting its calls.
CALL_METRIC = {
    "compiler.frontend.consumers": "compiler.frontend.consumers_calls",
    "compiler.mapping": "compiler.partition.stages_priced",
    "compiler.cost.estimate_stage": "compiler.cost.estimate_stage_calls",
    "sim.fastmodel.analyze": "sim.fastmodel.calls",
    "sim.chip.construct": "sim.chip.constructs",
    "runtime.submit": "runtime.submits",
}

#: Counts recorded by the hooks in :data:`WRAPPED`.
HOOK_COUNTS = (
    "compiler.closures.count",
    "compiler.codegen.static_instructions",
    "sim.instructions",
    "sim.noc_bytes",
)

#: Spans each workload must fire; a traced run in which one stays silent
#: fails, so a refactor that bypasses a wrapped entry point cannot report
#: a layer as costing nothing.
_COMPILE_PLAN = (
    "graph.build", "compiler.frontend.condense", "compiler.geometry.build",
    "compiler.frontend.consumers", "compiler.partition", "compiler.mapping",
    "compiler.cost.estimate_stage", "compiler.plan.assign",
)
_FLEET = _COMPILE_PLAN + (
    "compiler.closures.enumerate", "sim.fastmodel.analyze",
    "serve.fleet_submit", "serve.replica_submit",
    "sim.multichip.streaming_schedule",
)
DECLARED = {
    "dse_sweep": _COMPILE_PLAN + (
        "compiler.closures.enumerate", "sim.fastmodel.analyze", "explore",
    ),
    "cyclesim_golden": _COMPILE_PLAN + (
        "compiler.plan.layout", "compiler.codegen.generate",
        "compiler.codegen.image", "sim.fastmodel.analyze",
        "sim.chip.construct", "sim.chip.run", "sim.multichip.execute",
        "sim.functional.golden", "sim.multichip.streaming_schedule",
        "serve.replica_submit",
    ),
    "fleet_jsq": _FLEET,
    "fleet_faults_live": _FLEET + (
        "runtime.submit", "runtime.admit", "faults.engine_push",
        "faults.engine_settle",
        "serve.run_trace", "faults.run_fault_schedule",
        "runtime.cross_check",
    ),
}


class Tracer:
    """Records spans and hook counts in memory."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.counts: Dict[str, int] = {name: 0 for name in HOOK_COUNTS}
        self.request = -1
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed out of order; the "
                f"open spans are {[self.names[i] for i in self._stack]}"
            )
        self._stack.pop()

    # -- wrapping -------------------------------------------------------------
    def _wrapper(self, fn, name, hook):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                index = self.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.close(index)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(result, self.counts)
            return result
        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPPED` where it is looked up."""
        for target, attr, name, hook in WRAPPED:
            module_name, _, class_name = target.partition(":")
            module = sys.modules[module_name]
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrapper(original, name, hook))
                self._restore.append(
                    functools.partial(setattr, owner, attr, original)
                )
                continue
            original = getattr(module, attr)
            wrapped = self._wrapper(original, name, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append(
                        functools.partial(setattr, mod, attr, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results --------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus time covered by children."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: Dict[str, float] = {}
        for index, name in enumerate(self.names):
            own = self.ends[index] - self.starts[index] - child_time[index]
            out[name] = out.get(name, 0.0) + own
        return out

    def durations(self, name: str) -> List[float]:
        return [
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names) if n == name
        ]

    def call_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def dump(self) -> Dict[str, list]:
        """The raw spans, column-wise, for writing out at the end."""
        return {
            "name": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "request": self.requests,
        }


def _percentile_us(durations: List[float], pct: float) -> float:
    if not durations:
        return 0.0
    ns = [round(d * 1e9) for d in durations]
    return latency_percentile(ns, pct) / 1e3


def layer_metrics(tracer: Tracer, workload: str) -> Dict[str, float]:
    """Per-layer metrics from one traced process's spans and counters.

    Raises if a span declared for ``workload`` never fired, or if the
    self times do not sum to the traced wall time.
    """
    calls = tracer.call_counts()
    silent = [name for name in DECLARED[workload] if not calls.get(name)]
    if silent:
        raise RuntimeError(
            f"declared spans never fired on {workload}: {silent}"
        )
    self_times = tracer.self_times()
    unmapped = set(self_times) - set(SELF_METRIC)
    if unmapped:
        raise RuntimeError(f"spans without a self-time metric: {unmapped}")
    layers = {metric: 0.0 for metric in SELF_METRIC.values()}
    layers.update({metric: 0 for metric in CALL_METRIC.values()})
    for name, own in self_times.items():
        layers[SELF_METRIC[name]] = own
    for name, metric in CALL_METRIC.items():
        layers[metric] = calls.get(name, 0)
    layers.update(tracer.counts)
    wall = sum(tracer.durations(ROOT_SPAN))
    layers["trace.wall_s"] = wall
    total_self = sum(self_times.values())
    if abs(total_self - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(
            f"self times sum to {total_self:.9f}s, traced wall is {wall:.9f}s"
        )
    layers["serve.fleet_submit_s"] = sum(
        tracer.durations("serve.fleet_submit")
    )
    submits = tracer.durations("runtime.submit")
    layers["runtime.submit_p50_us"] = _percentile_us(submits, 50)
    layers["runtime.submit_p99_us"] = _percentile_us(submits, 99)
    return layers
