"""Outside-in tracing of dosmpc's public layers.

While installed, the tracer replaces every public function of the layer
modules, and the public methods of their public classes, with a wrapper that
records one span per call: name, start, end, parent span and operation id.
The wrapper is bound under every name the original had inside ``dosmpc``, so
calls through ``from .x import f`` aliases are seen too. Nothing inside
``src/`` changes, and uninstalling restores the original objects.

Spans stay in memory; the per-layer metrics are computed from them when the
run ends. A layer's self time is the time its spans cover minus the time
their direct child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("qp", "mpc", "controllers", "dos", "data", "lti", "experiment")
# Constructors are dunder methods and so not wrapped, except where building
# the object is the layer's work.
TRACED_INITS = {"MpcAssembler"}

QP_SOLVE = "qp.Solver.solve"
MPC_ASSEMBLER = "mpc.MpcAssembler.__init__"
MPC_INSTANCE = "mpc.MpcAssembler.qp"
MPC_EXTRACT = "mpc.MpcAssembler.extract"
MPC_SOLVE = "mpc.solve_mpc"
DOS_RANDOM = "dos.generate_random"
DOS_VALIDATE = "dos.validate_schedule"
DOS_WORST = "dos.generate_worst_case"
DOS_SAVE = "dos.save_schedule"
DATA_COLLECT = "data.collect_offline"
DATA_PE = "data.is_persistently_exciting"
DATA_HANKEL = "data.HankelPair.from_trajectory"
LTI_GAINS = "lti.synthesize_gains"
LTI_SIMULATE = "lti.simulate"
EXP_PREPARE = "experiment.prepare"
EXP_SAVE = "experiment.RunRecord.save"


def _qp_info(result):
    """(iterations, status, polished, active set) of one QP solution. The
    active set is the box rows with a nonzero multiplier, with their sign."""
    mu = np.asarray(result.mu)
    rows = np.flatnonzero(mu)
    active = tuple(zip(rows.tolist(), np.sign(mu[rows]).astype(int).tolist()))
    return result.iterations, result.status, bool(result.polished), active


def _step_info(result):
    """(solved, nonzero input) of one controller step. A replayed plan entry
    that is exactly zero (the terminal anchor) counts as zero input."""
    return bool(result.solved), bool(np.any(np.asarray(result.u) != 0))


def _info_for(name):
    """What a span keeps of its call's result, beyond having returned."""
    if name == QP_SOLVE:
        return _qp_info
    if name.startswith("controllers.") and name.endswith(".step"):
        return _step_info
    return None


class Span:
    """One wrapped call; ``parent`` indexes the operation's span list."""

    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, start
        self.parent, self.info = parent, None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Span recorder over the public functions of dosmpc's layer modules."""

    def __init__(self):
        self.ops: dict = {}  # operation id -> its spans, in start order
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = self._plan()

    def _wrap(self, name, fn):
        tracer = self
        info = _info_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            # Set only on return, so a span without info marks a raised call.
            span.info = info(result) if info is not None else True
            return result
        return traced

    def _plan(self) -> list:
        """(owner, attribute, original, wrapped) for every binding to patch."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dosmpc" or name.startswith("dosmpc.")}
        patches = []
        for layer in LAYERS:
            module = modules[f"dosmpc.{layer}"]
            for public in module.__all__:
                obj = getattr(module, public)
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{public}", obj)
                    for mod in modules.values():
                        for attr, value in vars(mod).items():
                            if value is obj:
                                patches.append((mod, attr, obj, wrapped))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_") and not (
                                attr == "__init__" and public in TRACED_INITS):
                            continue
                        name = f"{layer}.{public}.{attr}"
                        if isinstance(raw, (staticmethod, classmethod)):
                            wrapped = type(raw)(self._wrap(name, raw.__func__))
                        elif inspect.isfunction(raw):
                            wrapped = self._wrap(name, raw)
                        else:
                            continue
                        patches.append((obj, attr, raw, wrapped))
        return patches

    @contextmanager
    def installed(self, op):
        """Trace calls made inside the block as operation ``op``."""
        self.spans = self.ops.setdefault(op, [])
        self._stack = []
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON row per span: op, name, start and end in microseconds
        since the first span, parent index within the op (-1 for none)."""
        starts = [s.start for spans in self.ops.values() for s in spans]
        t0 = min(starts, default=0.0)
        with open(path, "w") as fh:
            for op, spans in self.ops.items():
                for s in spans:
                    fh.write(json.dumps([op, s.name, round(1e6 * (s.start - t0), 1),
                                         round(1e6 * (s.end - t0), 1), s.parent]) + "\n")


# --------------------------------------------------------------- per-layer view

PER_LAYER = {
    "qp.solve.calls": "count",
    "qp.solve.ms_p50": "ms",
    "qp.solve.ms_p99": "ms",
    "qp.solve.busy_ms": "ms",
    "qp.iterations": "count",
    "qp.polished_frac": "ratio",
    "qp.nonoptimal": "count",
    "qp.active_solves_frac": "ratio",
    "qp.active_sets": "count",
    "mpc.assembler.ms": "ms",
    "mpc.instance.ms": "ms",
    "mpc.extract.ms_p50": "ms",
    "mpc.self_ms": "ms",
    "controllers.solve_step.ms_p50": "ms",
    "controllers.solve_step.ms_p99": "ms",
    "controllers.solve_steps": "count",
    "controllers.hold_steps": "count",
    "controllers.zero_input_steps": "count",
    "controllers.self_ms": "ms",
    "dos.generate_random.ms": "ms",
    "dos.validate_schedule.ms": "ms",
    "dos.validate_schedule.calls": "count",
    "dos.generate_worst_case.ms": "ms",
    "dos.attack_fraction": "ratio",
    "data.collect_offline.ms": "ms",
    "data.pe_accept_ratio": "ratio",
    "data.hankel.ms": "ms",
    "lti.synthesize_gains.ms": "ms",
    "lti.simulate.ms": "ms",
    "experiment.prepare.ms": "ms",
    "experiment.loop_self_ms": "ms",
    "experiment.save.ms": "ms",
    "experiment.save_schedule.ms": "ms",
    "experiment.bytes_written": "B",
    "trace.op_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _busy(spans, name) -> float:
    return sum(s.ms for s in spans if s.name == name)


def _self_ms(spans, layer, within=None) -> float:
    """Time covered by ``layer`` spans minus their direct children; with
    ``within``, only spans inside a span of that name count."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] += s.ms
    if within is not None:
        inside = [False] * len(spans)
        for i, s in enumerate(spans):
            inside[i] = s.name == within or (s.parent >= 0 and inside[s.parent])
    return sum(s.ms - child_ms[i] for i, s in enumerate(spans)
               if s.layer == layer and (within is None or inside[i]))


def _timings(spans, loop_s) -> dict:
    """Per-operation busy and self times, in ms."""
    controller_top = sum(s.ms for s in spans if s.layer == "controllers"
                         and (s.parent < 0 or spans[s.parent].layer != "controllers"))
    return {
        "qp.solve.busy_ms": _busy(spans, QP_SOLVE),
        "mpc.assembler.ms": _busy(spans, MPC_ASSEMBLER),
        "mpc.instance.ms": _busy(spans, MPC_INSTANCE),
        "mpc.self_ms": _self_ms(spans, "mpc", within=MPC_SOLVE),
        "controllers.self_ms": _self_ms(spans, "controllers"),
        "dos.generate_random.ms": _busy(spans, DOS_RANDOM),
        "dos.validate_schedule.ms": _busy(spans, DOS_VALIDATE),
        "dos.generate_worst_case.ms": _busy(spans, DOS_WORST),
        "data.collect_offline.ms": _busy(spans, DATA_COLLECT),
        "data.hankel.ms": _busy(spans, DATA_HANKEL),
        "lti.synthesize_gains.ms": _busy(spans, LTI_GAINS),
        "lti.simulate.ms": _busy(spans, LTI_SIMULATE),
        "experiment.prepare.ms": _busy(spans, EXP_PREPARE),
        "experiment.loop_self_ms": 1e3 * loop_s - controller_top,
        "experiment.save.ms": _busy(spans, EXP_SAVE),
        "experiment.save_schedule.ms": _busy(spans, DOS_SAVE),
    }


def _counts(spans) -> dict:
    """Per-operation counts, summed so that ratios keep their base."""
    qp = [s.info for s in spans if s.name == QP_SOLVE and s.info is not None]
    steps = [s.info for s in spans if s.layer == "controllers"
             and s.name.endswith(".step") and s.info is not None]
    return {
        "qp.solve.calls": len(qp),
        "qp.iterations": sum(i[0] for i in qp),
        "qp.polished": sum(i[2] for i in qp),
        "qp.nonoptimal": sum(i[1] != "optimal" for i in qp),
        "qp.active_solves": sum(bool(i[3]) for i in qp),
        "qp.active_sets": len({i[3] for i in qp}),
        "controllers.solve_steps": sum(solved for solved, _ in steps),
        "controllers.hold_steps": sum(not solved and moved for solved, moved in steps),
        "controllers.zero_input_steps": sum(not solved and not moved
                                            for solved, moved in steps),
        "dos.validate_schedule.calls": sum(s.name == DOS_VALIDATE for s in spans),
        "data.certified": sum(s.name == DATA_COLLECT and s.info is not None
                              for s in spans),
        "data.pe_checks": sum(s.name == DATA_PE for s in spans),
        "trace.spans": len(spans),
    }


def per_layer_metrics(tracer: Tracer, results: dict, count_ops: list,
                      overhead_ms: list) -> dict:
    """Per-layer metrics of a traced run.

    ``results`` maps each traced operation id to its ``OpResult``. Times are
    medians over all traced operations, or per-call percentiles over all
    their calls. Counts are means over the operations in ``count_ops``, a
    fixed number at the start of the run, so that they repeat exactly for
    one workload seed."""
    by_op = {op: tracer.ops.get(op, []) for op in results}
    timings = [_timings(by_op[op], results[op].loop_s) for op in results]
    metrics = {name: _median([t[name] for t in timings]) for name in timings[0]}
    every = [s for spans in by_op.values() for s in spans]
    qp_ms = [s.ms for s in every if s.name == QP_SOLVE]
    solve_ms = [s.ms for s in every if s.layer == "controllers"
                and s.name.endswith(".step") and s.info is not None and s.info[0]]
    metrics["qp.solve.ms_p50"] = _pct(qp_ms, 50)
    metrics["qp.solve.ms_p99"] = _pct(qp_ms, 99)
    metrics["mpc.extract.ms_p50"] = _pct([s.ms for s in every if s.name == MPC_EXTRACT], 50)
    metrics["controllers.solve_step.ms_p50"] = _pct(solve_ms, 50)
    metrics["controllers.solve_step.ms_p99"] = _pct(solve_ms, 99)

    counts = [_counts(by_op[op]) for op in count_ops]
    total = {key: sum(c[key] for c in counts) for key in counts[0]}
    n = len(count_ops)
    for key in ("qp.solve.calls", "qp.iterations", "qp.nonoptimal", "qp.active_sets",
                "controllers.solve_steps", "controllers.hold_steps",
                "controllers.zero_input_steps", "dos.validate_schedule.calls",
                "trace.spans"):
        metrics[key] = total[key] / n
    metrics["qp.polished_frac"] = _ratio(total["qp.polished"], total["qp.solve.calls"])
    metrics["qp.active_solves_frac"] = _ratio(total["qp.active_solves"],
                                              total["qp.solve.calls"])
    metrics["data.pe_accept_ratio"] = _ratio(total["data.certified"], total["data.pe_checks"])
    counted = [results[op] for op in count_ops]
    metrics["dos.attack_fraction"] = _ratio(sum(r.attacked for r in counted),
                                            sum(r.steps for r in counted))
    metrics["experiment.bytes_written"] = sum(r.bytes for r in counted) / n
    metrics["trace.op_ms"] = _median([1e3 * r.wall_s for r in results.values()])
    metrics["trace.overhead_ms"] = _median(overhead_ms)
    return {name: metrics[name] for name in PER_LAYER}
