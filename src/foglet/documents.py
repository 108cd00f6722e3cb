"""Operator-facing document formats: topology, request, config, and scenario
files are YAML; the HTTP API accepts the same request shape as JSON.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

import yaml

from .model import mbps, whole_number


class DocumentError(Exception):
    pass


def load_yaml(path: str):
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise DocumentError(f"no such file: {path}")
    except yaml.YAMLError as exc:
        raise DocumentError(f"{path}: {exc}")


# -- scenario scripts ------------------------------------------------------------


@dataclass(frozen=True)
class SubmitStep:
    request: Mapping
    expect: Optional[str] = None  # placed | rejected


@dataclass(frozen=True)
class AdvanceStep:
    dt_s: Fraction


@dataclass(frozen=True)
class LinkStateStep:
    link_id: str
    up: bool


@dataclass(frozen=True)
class AssertPlacementStep:
    component: str
    node: str
    tenant: str = "default"


@dataclass(frozen=True)
class AssertMetricStep:
    selector: str
    op: str
    value: Fraction


@dataclass(frozen=True)
class ReportStep:
    pass


ScenarioStep = Union[
    SubmitStep, AdvanceStep, LinkStateStep, AssertPlacementStep, AssertMetricStep, ReportStep
]

_COMPARATORS = {"==", "!=", "<=", ">=", "<", ">"}


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    topology: Mapping
    steps: "tuple[ScenarioStep, ...]"
    config: Optional[Mapping] = None
    caches_mib: Mapping[str, int] = field(default_factory=dict)


def _parse_step(doc: Mapping, index: int, base_dir: str) -> ScenarioStep:
    where = f"steps[{index}]"
    if not isinstance(doc, Mapping) or len(doc) != 1:
        raise DocumentError(f"{where}: each step is a single-key mapping")
    kind, body = next(iter(doc.items()))
    if kind == "submit":
        if isinstance(body, str):
            body = {"request": body}
        request = body.get("request")
        if isinstance(request, str):
            request = load_yaml(os.path.join(base_dir, request))
        if not isinstance(request, Mapping):
            raise DocumentError(f"{where}: submit needs a request document")
        expect = body.get("expect")
        if expect not in (None, "placed", "rejected"):
            raise DocumentError(f"{where}: expect must be placed or rejected")
        return SubmitStep(request=request, expect=expect)
    if kind == "advance":
        dt = mbps(body)
        if dt <= 0:
            raise DocumentError(f"{where}: advance needs a positive duration")
        return AdvanceStep(dt_s=dt)
    if kind == "link_down":
        return LinkStateStep(link_id=str(body), up=False)
    if kind == "link_up":
        return LinkStateStep(link_id=str(body), up=True)
    if kind == "assert_placement":
        return AssertPlacementStep(
            component=str(body["component"]),
            node=str(body["node"]),
            tenant=str(body.get("tenant", "default")),
        )
    if kind == "assert_metric":
        op = str(body.get("op", "=="))
        if op not in _COMPARATORS:
            raise DocumentError(f"{where}: unknown comparator {op!r}")
        return AssertMetricStep(
            selector=str(body["selector"]), op=op, value=mbps(body["value"])
        )
    if kind == "report":
        return ReportStep()
    raise DocumentError(f"{where}: unknown step kind {kind!r}")


def parse_scenario(doc: Mapping, base_dir: str = ".") -> ScenarioScript:
    if not isinstance(doc, Mapping):
        raise DocumentError("scenario document must be a mapping")
    topo_doc = doc.get("topology")
    if isinstance(topo_doc, str):
        topo_doc = load_yaml(os.path.join(base_dir, topo_doc))
    if not isinstance(topo_doc, Mapping):
        raise DocumentError("scenario needs a topology (inline mapping or file path)")
    steps = tuple(
        _parse_step(s, i, base_dir) for i, s in enumerate(doc.get("steps", []) or [])
    )
    caches = {}
    for node, mib in (doc.get("caches_mib") or {}).items():
        try:
            caches[str(node)] = whole_number(mib, f"caches_mib.{node}")
        except ValueError as exc:
            raise DocumentError(str(exc))
    return ScenarioScript(
        name=str(doc.get("name", "scenario")),
        topology=topo_doc,
        steps=steps,
        config=doc.get("config"),
        caches_mib=caches,
    )


def load_scenario(path: str) -> ScenarioScript:
    return parse_scenario(load_yaml(path), base_dir=os.path.dirname(os.path.abspath(path)))
