"""Spans around the engine's layers, recorded from outside the engine.

`instrument` replaces the public functions and methods of the foglet layer
modules with wrappers at the names their callers look up (a function is
rebound in every foglet module that imported it by name, so
`foglet.engine.validate_request` and `foglet.engine.write_store` are traced
as well as their home modules; methods are wrapped on their class). Engines
must be built after `instrument`, since they subscribe bound methods.

Spans are kept in memory as lists [name, start_ns, end_ns, parent, op] and
written out when the run ends. A span is recorded only inside a benchmark
operation (`begin`/`end`), so the checks that run between operations leave
no spans. Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("model", "topology", "inventory", "negotiator", "scheduler", "flowsim", "engine")
# The classes each layer is named after; other classes' methods get a
# class-qualified span name.
PRINCIPAL = {"Topology", "Inventory", "InventoryView", "FlowSimulator", "Engine"}
# Value types whose methods run per field or per link inside routing and
# accounting loops; a span each would cost more than the work it measures.
UNTRACED = {"mbps", "ResourceVector", "Link", "PathMetrics"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.keys = {}
        self.tags = {}

    def begin(self, kind, tag=None):
        self.op = len(self.spans)
        if tag is not None:
            self.tags[self.op] = tag
        self.spans.append([f"op:{kind}", 0, 0, -1, self.op])
        self.stack.append(self.op)

    def end(self, t0, t1):
        span = self.spans[self.op]
        span[1], span[2] = t0, t1
        self.stack.clear()
        self.op = -1

    def wrap(self, name, fn, key=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0, 0, stack[-1], self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if key is not None:
                    self.keys[idx] = key(*args, **kwargs)

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                       "parent": parent, "op": op}
                fh.write(json.dumps(rec) + "\n")


def _route_key(topo, a, b, residual):
    return (a, b, hash(tuple(residual.items())))


def instrument(tracer):
    """Wrap every public function and method of the layer modules."""
    import foglet  # noqa: F401  (loads every submodule)

    mods = [sys.modules[f"foglet.{m}"] for m in LAYERS]
    everywhere = [m for n, m in sys.modules.items() if n == "foglet" or n.startswith("foglet.")]
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or name in UNTRACED or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = tracer.wrap(f"{short}.{name}", obj)
                for m in everywhere:
                    for alias, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, alias, wrapped)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException) \
                    and not hasattr(obj, "__members__"):
                prefix = short if name in PRINCIPAL else f"{short}.{name}"
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    span = f"{prefix}.{attr}"
                    key = _route_key if span == "topology.path_between" else None
                    if isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, attr, type(member)(tracer.wrap(span, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, tracer.wrap(span, member, key))


def _self_ns(spans):
    """Each span's duration minus that of its child spans."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(tracer):
    """Per (op kind, span name): calls, inclusive ns and self ns; plus op
    counts and distinct routing queries per op kind."""
    spans = tracer.spans
    own = _self_ns(spans)
    kind_of = {}
    ops = defaultdict(int)
    for i, s in enumerate(spans):
        if s[3] < 0:
            kind_of[i] = s[0][3:]
            ops[s[0][3:]] += 1
    agg = defaultdict(lambda: [0, 0, 0])
    for i, s in enumerate(spans):
        kind = kind_of[s[4]]
        row = agg[(kind, s[0])]
        row[0] += 1
        row[1] += s[2] - s[1]
        row[2] += own[i]
    distinct = defaultdict(set)
    for idx, key in tracer.keys.items():
        distinct[spans[idx][4]].add(key)
    routes = defaultdict(int)
    for op, keys in distinct.items():
        routes[kind_of[op]] += len(keys)
    return agg, ops, routes


# (metric, unit, op kinds, span, statistic, denominator)
#   statistic: calls | ms (inclusive) | self_ms
#   denominator: ops (number of ops of those kinds) | placements | calls
#                | snapshots | distinct
PER_LAYER = [
    ("model.validate_request.calls_per_submit", "count", ("decision",), "model.validate_request", "calls", "ops"),
    ("model.validate_request.ms_per_submit", "ms", ("decision",), "model.validate_request", "ms", "ops"),
    ("topology.path_between.calls_per_decision", "count", ("decision",), "topology.path_between", "calls", "ops"),
    ("topology.path_between.self_ms_per_decision", "ms", ("decision",), "topology.path_between", "self_ms", "ops"),
    ("topology.path_between.distinct_ratio", "ratio", ("decision",), "topology.path_between", "distinct", "calls"),
    ("topology.path_metrics.self_ms_per_decision", "ms", ("decision",), "topology.path_metrics", "self_ms", "ops"),
    ("topology.set_link_state.self_ms_per_event", "ms", ("link_down", "link_up"), "topology.set_link_state", "self_ms", "ops"),
    ("inventory.snapshot.calls_per_decision", "count", ("decision",), "inventory.snapshot", "calls", "ops"),
    ("inventory.snapshot.self_ms_per_decision", "ms", ("decision",), "inventory.snapshot", "self_ms", "ops"),
    ("inventory.residuals.calls_per_decision", "count", ("decision",), "inventory.residuals", "calls", "ops"),
    ("inventory.residuals.calls_per_snapshot", "count", ("decision",), "inventory.residuals", "calls", "snapshots"),
    ("inventory.residuals.self_ms_per_decision", "ms", ("decision",), "inventory.residuals", "self_ms", "ops"),
    ("inventory.hold.self_ms_per_placement", "ms", ("decision",), "inventory.hold", "self_ms", "placements"),
    ("inventory.commit.self_ms_per_placement", "ms", ("decision",), "inventory.commit", "self_ms", "placements"),
    ("inventory.expire_reservations.ms_per_advance", "ms", ("advance",), "inventory.expire_reservations", "ms", "ops"),
    ("inventory.on_link_state_changed.ms_per_event", "ms", ("link_down", "link_up"), "inventory.on_link_state_changed", "ms", "ops"),
    ("inventory.snapshot.calls_per_link_up", "count", ("link_up",), "inventory.snapshot", "calls", "ops"),
    ("inventory.state_document.ms_per_save", "ms", ("save",), "inventory.state_document", "ms", "ops"),
    ("inventory.load_state_document.ms_per_load", "ms", ("load",), "inventory.load_state_document", "ms", "ops"),
    ("inventory.write_store.ms_per_save", "ms", ("save",), "inventory.write_store", "ms", "ops"),
    ("inventory.read_store.ms_per_load", "ms", ("load",), "inventory.read_store", "ms", "ops"),
    ("negotiator.negotiate.self_ms_per_decision", "ms", ("decision",), "negotiator.negotiate", "self_ms", "ops"),
    ("scheduler.feasible_nodes.self_ms_per_decision", "ms", ("decision",), "scheduler.feasible_nodes", "self_ms", "ops"),
    ("scheduler.priority.calls_per_decision", "count", ("decision",), "scheduler.priority", "calls", "ops"),
    ("scheduler.priority.self_ms_per_decision", "ms", ("decision",), "scheduler.priority", "self_ms", "ops"),
    ("scheduler.plan_flows.self_ms_per_decision", "ms", ("decision",), "scheduler.plan_flows", "self_ms", "ops"),
    ("scheduler.schedule.self_ms_per_placement", "ms", ("decision",), "scheduler.schedule", "self_ms", "placements"),
    ("flowsim.activate_flow.ms_per_placement", "ms", ("decision", "setup"), "flowsim.activate_flow", "ms", "placements"),
    ("flowsim.on_link_state_changed.self_ms_per_event", "ms", ("link_down", "link_up"), "flowsim.on_link_state_changed", "self_ms", "ops"),
    ("flowsim.advance.ms_per_call", "ms", ("advance",), "flowsim.advance", "ms", "calls"),
    ("flowsim.report.ms_per_call", "ms", ("report",), "flowsim.report", "ms", "calls"),
    ("flowsim.state_document.ms_per_save", "ms", ("save",), "flowsim.state_document", "ms", "ops"),
    ("flowsim.load_state_document.ms_per_load", "ms", ("load",), "flowsim.load_state_document", "ms", "ops"),
    ("engine.process_pending.self_ms_per_decision", "ms", ("decision",), "engine.process_pending", "self_ms", "ops"),
    ("engine.submit.self_ms_per_submit", "ms", ("decision",), "engine.submit", "self_ms", "ops"),
    ("engine.advance.self_ms_per_call", "ms", ("advance",), "engine.advance", "self_ms", "calls"),
    ("engine.report.self_ms_per_call", "ms", ("report",), "engine.report", "self_ms", "calls"),
    ("engine.save.self_ms", "ms", ("save",), "engine.save", "self_ms", "calls"),
    ("engine.load.self_ms", "ms", ("load",), "engine.load", "self_ms", "calls"),
]


def per_layer_metrics(tracer):
    """Every PER_LAYER metric; 0 where the workload never runs the layer."""
    agg, ops, routes = summarize(tracer)
    out = {}
    for metric, unit, kinds, span, stat, denom in PER_LAYER:
        calls = sum(agg[(k, span)][0] for k in kinds)
        num = {
            "calls": calls,
            "ms": sum(agg[(k, span)][1] for k in kinds) / 1e6,
            "self_ms": sum(agg[(k, span)][2] for k in kinds) / 1e6,
            "distinct": sum(routes[k] for k in kinds),
        }[stat]
        den = {
            "ops": sum(ops[k] for k in kinds),
            "calls": calls,
            "placements": sum(agg[(k, "scheduler.schedule")][0] for k in kinds),
            "snapshots": sum(agg[(k, "inventory.snapshot")][0] for k in kinds),
        }[denom]
        out[metric] = {"value": num / den if den else 0.0, "unit": unit}
    return out


def breakdown(tracer, kinds, tag=None, top=8):
    """Self-time shares of the spans inside ops of `kinds` (and `tag`, if
    given), largest first; `bench` is time in the operation outside every
    engine span."""
    spans = tracer.spans
    own = _self_ns(spans)
    rows = defaultdict(int)
    for i, (name, _, _, _, op) in enumerate(spans):
        if spans[op][0][3:] in kinds and (tag is None or tracer.tags.get(op) == tag):
            rows["bench" if name.startswith("op:") else name] += own[i]
    total = sum(rows.values()) or 1
    ranked = sorted(rows.items(), key=lambda kv: -kv[1])[:top]
    return [(name, ns / total) for name, ns in ranked]
