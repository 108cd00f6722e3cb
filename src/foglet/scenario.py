"""Scenario execution: build an engine from a script, run its steps in order,
collect outcomes, reports, and assertion results.

A scenario run is pure function of its script: virtual clock, sequential
ids, and exact arithmetic make replays bit-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .config import EngineConfig, config_from_document
from .documents import (
    AdvanceStep,
    AssertMetricStep,
    AssertPlacementStep,
    DocumentError,
    LinkStateStep,
    ReportStep,
    ScenarioScript,
    SubmitStep,
)
from .engine import Engine
from .flowsim import MetricsReport
from .model import ReferenceError_, ValidationError
from .topology import load_topology


class ScenarioError(Exception):
    pass


class AssertionFailure(ScenarioError):
    pass


@dataclass
class ScenarioResult:
    name: str
    outcomes: List[dict] = field(default_factory=list)
    reports: List[dict] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    final_report: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def outcome_stream(self) -> str:
        """Canonical serialization of every decision, for replay comparison."""
        return json.dumps(self.outcomes, sort_keys=True)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "outcomes": self.outcomes,
            "reports": self.reports,
            "failures": self.failures,
            "final_report": self.final_report,
        }


def build_engine(script: ScenarioScript) -> Engine:
    """An engine on the script's topology, with `caches_mib` written into a
    copy of the topology document. Raises DocumentError when `caches_mib`
    names a node the topology lacks."""
    caches = dict(script.caches_mib)
    nodes = []
    for nd in script.topology.get("nodes", []) or []:
        mib = caches.pop(str(nd.get("id")), None)
        nodes.append(nd if mib is None else {**nd, "cache_mib": mib})
    if caches:
        raise DocumentError(f"caches_mib names nodes the topology lacks: {sorted(caches)}")
    topo = load_topology({**script.topology, "nodes": nodes})
    config = config_from_document(script.config, EngineConfig())
    return Engine(topo, config=config)


_FLOW_PAIR = re.compile(r"^(?P<src>[^.]+)->(?P<dst>[^.]+)$")


def resolve_metric(report: MetricsReport, selector: str) -> Fraction:
    """Dotted metric lookup over a report.

    Forms: link.<id>.<field>, flow.<id>.<field>,
    flow.<source>-><sink>.<field> (component names or endpoint ids),
    cache.<node>.occupied_bytes, clock.horizon_s.
    """
    parts = selector.split(".")
    if selector == "clock.horizon_s":
        return report.horizon_s
    if len(parts) != 3:
        raise ScenarioError(f"bad metric selector {selector!r}")
    kind, key, fieldname = parts
    if kind == "link":
        try:
            link = report.link(key)
        except KeyError:
            raise ScenarioError(f"unknown link {key!r}")
        try:
            value = getattr(link, fieldname)
        except AttributeError:
            raise ScenarioError(f"unknown link metric {fieldname!r}")
        return value
    if kind == "cache":
        if fieldname != "occupied_bytes":
            raise ScenarioError(f"unknown cache metric {fieldname!r}")
        if key not in report.caches:
            raise ScenarioError(f"no cache configured on node {key!r}")
        return report.caches[key]
    if kind == "flow":
        pair = _FLOW_PAIR.match(key)
        if pair:
            matches = [
                f for f in report.flows
                if _end_name(f.source) == pair["src"] and _end_name(f.sink) == pair["dst"]
            ]
            if not matches:
                raise ScenarioError(f"no flow matches {key!r}")
            if len(matches) > 1:
                raise ScenarioError(f"selector {key!r} is ambiguous: {[f.flow_id for f in matches]}")
            flow = matches[0]
        else:
            try:
                flow = report.flow(key)
            except KeyError:
                raise ScenarioError(f"unknown flow {key!r}")
        try:
            return getattr(flow, fieldname)
        except AttributeError:
            raise ScenarioError(f"unknown flow metric {fieldname!r}")
    raise ScenarioError(f"bad metric selector {selector!r}")


def _end_name(label: str) -> str:
    # Labels look like "placement:face_detection@cloud" or "endpoint:camera-1@gateway-a".
    return label.split(":", 1)[1].split("@", 1)[0]


_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


def run_scenario(script: ScenarioScript, engine: Optional[Engine] = None,
                 stop_on_failure: bool = True) -> ScenarioResult:
    """Execute every step in order. Assertion failures abort the run (the
    partial result carries the failure message) unless stop_on_failure=False."""
    engine = engine or build_engine(script)
    result = ScenarioResult(name=script.name)

    for index, step in enumerate(script.steps):
        try:
            _run_step(step, engine, result, index)
        except AssertionFailure as exc:
            result.failures.append(str(exc))
            if stop_on_failure:
                break
    result.final_report = engine.report().to_dict()
    return result


def _run_step(step, engine: Engine, result: ScenarioResult, index: int) -> None:
    if isinstance(step, SubmitStep):
        try:
            request_id = engine.submit(step.request)
        except (ValidationError, ReferenceError_) as exc:
            raise AssertionFailure(f"steps[{index}]: submit refused: {exc}")
        records = engine.process_pending()
        for record in records:
            result.outcomes.append(record.to_dict())
        final = records[-1]
        if step.expect and final.outcome != step.expect:
            raise AssertionFailure(
                f"steps[{index}]: expected request {request_id} to be "
                f"{step.expect}, got {final.outcome}"
                + (f" ({_summarize_reasons(final)})" if final.reasons else "")
            )
    elif isinstance(step, AdvanceStep):
        engine.advance(step.dt_s)
    elif isinstance(step, LinkStateStep):
        engine.set_link_state(step.link_id, step.up)
    elif isinstance(step, AssertPlacementStep):
        node = engine.placement_node(step.tenant, step.component)
        if node != step.node:
            raise AssertionFailure(
                f"steps[{index}]: component {step.component!r} on {node!r}, "
                f"expected {step.node!r}"
            )
    elif isinstance(step, AssertMetricStep):
        report = engine.report()
        actual = resolve_metric(report, step.selector)
        if not _OPS[step.op](actual, step.value):
            raise AssertionFailure(
                f"steps[{index}]: {step.selector} = {float(actual):g}, "
                f"expected {step.op} {float(step.value):g}"
            )
    elif isinstance(step, ReportStep):
        result.reports.append(engine.report().to_dict())
    else:
        raise ScenarioError(f"unhandled step {step!r}")


def _summarize_reasons(record) -> str:
    return "; ".join(f"{node}: {detail}" for node, _check, detail in record.reasons)
