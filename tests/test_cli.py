import json
import os
import subprocess
import sys
import threading

import pytest
import yaml

from foglet.engine import Engine
from foglet.http_api import ApiServer
from foglet.topology import load_topology
from tests.conftest import SCENARIO_DIR, camera_app_doc, reference_topology_doc

TOPOLOGY_PATH = os.path.join(SCENARIO_DIR, "reference_topology.yaml")


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "foglet.cli", *args],
        capture_output=True, text=True, timeout=120, **kwargs,
    )


def test_run_usecase_b_exits_zero_and_reports_thin_uplink():
    result = run_cli("run", os.path.join(SCENARIO_DIR, "usecase_b.yaml"))
    assert result.returncode == 0, result.stderr
    assert "face_detection): placed on cloudlet-a" in result.stdout
    assert "wan: offered=0.2" in result.stdout


def test_run_json_report_is_machine_readable():
    result = run_cli("run", os.path.join(SCENARIO_DIR, "usecase_a.yaml"), "--json")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    wan = next(l for l in report["links"] if l["link_id"] == "wan")
    assert wan["offered_mbps"] == 4.0


def test_run_failing_assert_exits_3(tmp_path):
    script = {
        "name": "wrong",
        "topology": TOPOLOGY_PATH,
        "steps": [
            {"submit": {"request": {"component": {"name": "x"}}}},
            {"assert_placement": {"component": "x", "node": "gateway-a"}},  # lands on cloud
        ],
    }
    path = tmp_path / "wrong.yaml"
    path.write_text(yaml.safe_dump(script))
    result = run_cli("run", str(path))
    assert result.returncode == 3
    assert "ASSERTION FAILED" in result.stderr


def test_run_with_a_cache_on_an_unknown_node_exits_1(tmp_path):
    with open(os.path.join(SCENARIO_DIR, "usecase_c.yaml")) as fh:
        script = yaml.safe_load(fh)
    script["topology"] = TOPOLOGY_PATH
    script["caches_mib"]["no-such-node"] = 64
    path = tmp_path / "ghost_cache.yaml"
    path.write_text(yaml.safe_dump(script))
    result = run_cli("run", str(path))
    assert result.returncode == 1
    assert "caches_mib names nodes the topology lacks: ['no-such-node']" in result.stderr


def test_run_csv_time_series(tmp_path):
    out = tmp_path / "series.csv"
    result = run_cli("run", os.path.join(SCENARIO_DIR, "usecase_c.yaml"), "--csv", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,t_s,id,")
    assert any(line.startswith("link,") for line in lines[1:])
    assert any(line.startswith("flow,") for line in lines[1:])


def test_load_valid_topology():
    result = run_cli("load", TOPOLOGY_PATH)
    assert result.returncode == 0
    assert "topology ok: 3 nodes" in result.stdout


def test_load_broken_topology_exits_1(tmp_path):
    doc = reference_topology_doc()
    doc["links"][0]["b"] = "ghost"
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(doc))
    result = run_cli("load", str(path))
    assert result.returncode == 1
    assert "error" in result.stderr


def test_usage_error_exits_2():
    result = run_cli("no-such-command")
    assert result.returncode == 2


@pytest.fixture
def live_server():
    engine = Engine(load_topology(reference_topology_doc()))
    server = ApiServer(engine, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.port}"
    server.shutdown()


def test_client_commands_against_live_server(tmp_path, live_server):
    request_path = tmp_path / "req.yaml"
    request_path.write_text(yaml.safe_dump(camera_app_doc(svs=True)))

    submitted = run_cli("submit", str(request_path), "--server", live_server)
    assert submitted.returncode == 0, submitted.stderr
    request_id = json.loads(submitted.stdout)["id"]

    import time

    for _ in range(200):
        status = run_cli("status", request_id, "--server", live_server)
        if '"state": "placed"' in status.stdout:
            break
        time.sleep(0.02)
    else:
        raise AssertionError(f"request never placed: {status.stdout}")

    explain = run_cli("explain", request_id, "--server", live_server)
    assert explain.returncode == 0, explain.stderr
    assert "placed on cloudlet-a" in explain.stdout
    assert "network:camera-1" in explain.stdout

    report = run_cli("report", "--server", live_server)
    assert report.returncode == 0
    assert "lan-a" in report.stdout

    overview = run_cli("status", "--server", live_server)
    assert overview.returncode == 0
    assert "face_detection" in overview.stdout
