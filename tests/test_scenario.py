import pytest

from foglet.documents import DocumentError, parse_scenario
from foglet.scenario import ScenarioError, build_engine, resolve_metric, run_scenario
from tests.conftest import camera_app_doc, reference_topology_doc, store_app_doc


def make_script(steps, caches=None):
    return parse_scenario({
        "name": "t",
        "topology": reference_topology_doc(),
        "caches_mib": caches or {},
        "steps": steps,
    })


def test_failed_assert_aborts_run_with_failure_recorded():
    script = make_script([
        {"submit": {"request": store_app_doc("x")}},
        {"assert_placement": {"component": "x", "node": "gateway-a"}},
        {"advance": 10},  # must not run
    ])
    result = run_scenario(script, build_engine(script))
    assert not result.ok
    assert "expected 'gateway-a'" in result.failures[0]
    assert result.final_report["horizon_s"] == 0  # aborted before the advance


def test_expect_rejected_matches_rejection():
    script = make_script([
        {"submit": {
            "request": {"component": {"name": "big"},
                        "requirements": [{"compute": {"vcpus": 10 ** 6}}]},
            "expect": "rejected",
        }},
    ])
    result = run_scenario(script, build_engine(script))
    assert result.ok


def test_expect_mismatch_is_a_failure_with_reasons():
    script = make_script([
        {"submit": {
            "request": {"component": {"name": "big"},
                        "requirements": [{"compute": {"vcpus": 10 ** 6}}]},
            "expect": "placed",
        }},
    ])
    result = run_scenario(script, build_engine(script))
    assert not result.ok
    assert "expected request req-000001 to be placed" in result.failures[0]
    assert "shortfall" in result.failures[0]


def test_refused_submission_is_a_failure():
    script = make_script([
        {"submit": {"request": {"component": {}}}},
    ])
    result = run_scenario(script, build_engine(script))
    assert not result.ok
    assert "submit refused" in result.failures[0]


def flow_report():
    script = make_script([
        {"submit": {"request": camera_app_doc()}},
        {"submit": {"request": store_app_doc()}},
        {"advance": 10},
    ])
    engine = build_engine(script)
    run_scenario(script, engine)
    return engine.report()


def test_metric_selectors():
    report = flow_report()
    assert resolve_metric(report, "link.wan.offered_mbps") == 4
    assert resolve_metric(report, "link.wan.utilization") == 2
    assert resolve_metric(report, "flow.camera-1->face_detection.bytes_delivered") == 5_000_000
    assert resolve_metric(report, "flow.face_detection->face_store.bytes_sourced") == 250_000
    assert resolve_metric(report, "flow.flow-000001.bytes_sourced") == 5_000_000
    assert resolve_metric(report, "clock.horizon_s") == 10


@pytest.mark.parametrize("selector", [
    "link.ghost.offered_mbps",
    "link.wan.nonsense",
    "flow.nobody->nothing.bytes_lost",
    "flow.flow-000001.warp",
    "cache.cloud.occupied_bytes",
    "just-wrong",
    "a.b.c.d",
])
def test_bad_selectors_raise(selector):
    report = flow_report()
    with pytest.raises(ScenarioError):
        resolve_metric(report, selector)


def test_caches_land_in_the_topology_and_unknown_nodes_are_refused():
    script = make_script([], caches={"cloudlet-a": 64})
    engine = build_engine(script)
    assert engine.topo.nodes["cloudlet-a"].cache_mib == 64
    assert "cache_mib" not in script.topology["nodes"][1]  # written into a copy
    assert sorted(engine.report().caches) == ["cloudlet-a"]
    with pytest.raises(DocumentError, match=r"lacks: \['no-such-node'\]"):
        build_engine(make_script([], caches={"cloudlet-a": 64, "no-such-node": 64}))
