import os
from fractions import Fraction

import pytest

from foglet.documents import (
    AdvanceStep,
    AssertMetricStep,
    AssertPlacementStep,
    DocumentError,
    LinkStateStep,
    ReportStep,
    SubmitStep,
    load_scenario,
    load_yaml,
    parse_scenario,
)
from tests.conftest import SCENARIO_DIR, reference_topology_doc


def test_shipped_scenarios_parse():
    for name in ("usecase_a", "usecase_b", "usecase_c"):
        script = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))
        assert script.name == name
        assert script.steps
        assert any(isinstance(s, SubmitStep) for s in script.steps)


def test_scenario_step_kinds():
    script = parse_scenario({
        "name": "mixed",
        "topology": reference_topology_doc(),
        "caches_mib": {"cloudlet-a": 64},
        "steps": [
            {"submit": {"request": {"component": {"name": "x"}}, "expect": "placed"}},
            {"advance": 2.5},
            {"link_down": "wan"},
            {"link_up": "wan"},
            {"assert_placement": {"component": "x", "node": "cloud"}},
            {"assert_metric": {"selector": "link.wan.offered_mbps", "op": "<=", "value": 1}},
            {"report": {}},
        ],
    })
    kinds = [type(s) for s in script.steps]
    assert kinds == [SubmitStep, AdvanceStep, LinkStateStep, LinkStateStep,
                     AssertPlacementStep, AssertMetricStep, ReportStep]
    assert script.steps[1].dt_s == Fraction(5, 2)
    assert script.caches_mib == {"cloudlet-a": 64}


def test_unknown_step_kind_rejected():
    with pytest.raises(DocumentError, match="unknown step"):
        parse_scenario({
            "topology": reference_topology_doc(),
            "steps": [{"destroy_everything": {}}],
        })


def test_unknown_comparator_rejected():
    with pytest.raises(DocumentError, match="comparator"):
        parse_scenario({
            "topology": reference_topology_doc(),
            "steps": [{"assert_metric": {"selector": "x", "op": "~=", "value": 1}}],
        })


def test_bad_expect_rejected():
    with pytest.raises(DocumentError, match="expect"):
        parse_scenario({
            "topology": reference_topology_doc(),
            "steps": [{"submit": {"request": {"component": {"name": "x"}}, "expect": "maybe"}}],
        })


def test_scenario_requires_topology():
    with pytest.raises(DocumentError, match="topology"):
        parse_scenario({"steps": []})


@pytest.mark.parametrize("value", [1.9, 0.5, -5, True])
def test_scenario_cache_sizes_are_whole_numbers_never_rounded(value):
    with pytest.raises(DocumentError, match="caches_mib.cloudlet-a"):
        parse_scenario({"topology": reference_topology_doc(), "steps": [],
                        "caches_mib": {"cloudlet-a": value}})


def test_missing_file_is_a_document_error():
    with pytest.raises(DocumentError, match="no such file"):
        load_yaml("/nonexistent/place.yaml")


def test_submit_step_can_reference_request_file(tmp_path):
    request_path = tmp_path / "req.yaml"
    request_path.write_text("component:\n  name: filed\n")
    topo_path = tmp_path / "topo.yaml"
    import yaml

    topo_path.write_text(yaml.safe_dump(reference_topology_doc()))
    scenario_path = tmp_path / "scenario.yaml"
    scenario_path.write_text(
        "name: filed\ntopology: topo.yaml\nsteps:\n  - submit: {request: req.yaml}\n"
    )
    script = load_scenario(str(scenario_path))
    assert script.steps[0].request["component"]["name"] == "filed"
