import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from foglet.engine import Engine
from foglet.http_api import ApiServer
from foglet.topology import load_topology
from tests.conftest import camera_app_doc, reference_topology_doc, store_app_doc


def serve(topo_doc):
    srv = ApiServer(Engine(load_topology(topo_doc)), ("127.0.0.1", 0))
    import threading

    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.fixture
def server():
    yield from serve(reference_topology_doc())


@pytest.fixture
def cached_server():
    """The reference topology with a 1 GiB cache on cloudlet-a."""
    doc = reference_topology_doc()
    doc["nodes"][1]["cache_mib"] = 1024
    yield from serve(doc)


def call(server, method, path, body=None, expect_error=None, raw=None):
    """`raw` sends those bytes as the body instead of `body` encoded as JSON."""
    url = f"http://127.0.0.1:{server.port}{path}"
    data = raw if raw is not None else json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        status, payload = exc.code, json.loads(exc.read())
        if expect_error is None:
            raise AssertionError(f"{method} {path} -> {status}: {payload}")
        return status, payload


def poll_terminal(server, request_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = call(server, "GET", f"/v1/requests/{request_id}")
        if status["state"] in ("placed", "rejected"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"request {request_id} never left state {status['state']}")


def test_submit_then_poll_until_placed(server):
    status, body = call(server, "POST", "/v1/requests", camera_app_doc())
    assert status == 202
    outcome = poll_terminal(server, body["id"])
    assert outcome["state"] == "placed"
    assert outcome["placement"]["node_id"] == "cloud"


def test_malformed_document_is_400(server):
    status, payload = call(server, "POST", "/v1/requests",
                           {"component": {}}, expect_error=400)
    assert status == 400
    assert payload["error"] == "validation"
    assert payload["field"] == "component.name"


def test_unknown_endpoint_reference_is_422(server):
    doc = {
        "component": {"name": "x"},
        "requirements": [{"network": {"endpoint": "ghost"}}],
    }
    status, payload = call(server, "POST", "/v1/requests", doc, expect_error=422)
    assert status == 422
    assert payload["error"] == "unknown_reference"


def test_infeasible_request_rejected_with_reasons(server):
    doc = {
        "component": {"name": "monster"},
        "requirements": [{"compute": {"vcpus": 10**6}}],
    }
    _, body = call(server, "POST", "/v1/requests", doc)
    outcome = poll_terminal(server, body["id"])
    assert outcome["state"] == "rejected"
    assert len(outcome["reasons"]) == 3  # one entry per hostable node


def test_fresh_system_listings(server):
    _, nodes = call(server, "GET", "/v1/nodes")
    assert [n["id"] for n in nodes] == ["cloud", "cloudlet-a", "gateway-a"]
    assert all(n["allocated"]["vcpus"] == 0 for n in nodes)
    _, placements = call(server, "GET", "/v1/placements")
    assert placements == []


def test_usecase_b_through_the_api(server):
    _, r1 = call(server, "POST", "/v1/requests", camera_app_doc(svs=True))
    poll_terminal(server, r1["id"])
    _, r2 = call(server, "POST", "/v1/requests", store_app_doc())
    poll_terminal(server, r2["id"])
    _, placements = call(server, "GET", "/v1/placements")
    where = {p["component"]: p["node_id"] for p in placements}
    assert where == {"face_detection": "cloudlet-a", "face_store": "cloud"}
    call(server, "POST", "/v1/advance", {"seconds": 10})
    _, wan = call(server, "GET", "/v1/links/wan/utilization")
    assert wan["offered_mbps"] == 0.2
    assert wan["utilization"] == 0.1


def test_link_utilization_unknown_link_404(server):
    status, _ = call(server, "GET", "/v1/links/ghost/utilization", expect_error=404)
    assert status == 404


def test_fault_event_propagates_to_flows(cached_server):
    server = cached_server
    _, r1 = call(server, "POST", "/v1/requests", {
        "component": {"name": "anonymizer", "flows": [
            {"to_component": "analyzer", "rate_mbps": 0.5},
        ]},
        "requirements": [{"location": {"region": "metro-a"}}],
    })
    poll_terminal(server, r1["id"])
    _, r2 = call(server, "POST", "/v1/requests", {"component": {"name": "analyzer"}})
    poll_terminal(server, r2["id"])
    status, _ = call(server, "POST", "/v1/events", {"link": "wan", "state": "down"})
    assert status == 200
    call(server, "POST", "/v1/advance", {"seconds": 60})
    _, report = call(server, "GET", "/v1/report")
    flow = next(f for f in report["flows"] if "analyzer" in f["sink"])
    assert flow["state"] == "caching"
    assert flow["bytes_cached"] == 3_750_000
    call(server, "POST", "/v1/events", {"link": "wan", "state": "up"})
    call(server, "POST", "/v1/advance", {"seconds": 60})
    _, report = call(server, "GET", "/v1/report")
    flow = next(f for f in report["flows"] if "analyzer" in f["sink"])
    assert flow["state"] == "active"
    assert flow["bytes_cached"] == 0


def test_event_on_unknown_link_404(server):
    status, _ = call(server, "POST", "/v1/events",
                     {"link": "ghost", "state": "down"}, expect_error=404)
    assert status == 404


def test_unknown_request_404(server):
    status, _ = call(server, "GET", "/v1/requests/req-999999", expect_error=404)
    assert status == 404


def test_explain_exposes_verdicts_and_scores(server):
    _, body = call(server, "POST", "/v1/requests", camera_app_doc(svs=True))
    poll_terminal(server, body["id"])
    _, record = call(server, "GET", f"/v1/requests/{body['id']}/explain")
    assert record["outcome"] == "placed"
    assert record["node_id"] == "cloudlet-a"
    cloud = next(v for v in record["verdicts"] if v["node_id"] == "cloud")
    assert not cloud["passed"]
    failing = [c for c in cloud["checks"] if not c["passed"]]
    assert any("network" in c["name"] for c in failing)
    assert {s["node_id"] for s in record["scores"]} == {"cloudlet-a", "gateway-a"}


def test_reads_between_writes_are_stable(server):
    _, body = call(server, "POST", "/v1/requests", camera_app_doc())
    poll_terminal(server, body["id"])
    first = call(server, "GET", "/v1/report")
    second = call(server, "GET", "/v1/report")
    assert first == second
    nodes_a = call(server, "GET", "/v1/nodes")
    nodes_b = call(server, "GET", "/v1/nodes")
    assert nodes_a == nodes_b


@pytest.mark.parametrize("path,raw", [
    ("/v1/advance", b'{"seconds": true}'),
    ("/v1/advance", b'{"seconds": 1e400}'),
    ("/v1/advance", b'[1]'),
    ("/v1/events", b'[1]'),
])
def test_malformed_bodies_get_400_and_the_server_keeps_answering(server, path, raw):
    status, payload = call(server, "POST", path, raw=raw, expect_error=400)
    assert status == 400
    assert payload["error"] == "bad_request"
    status, report = call(server, "GET", "/v1/report")
    assert status == 200 and report["horizon_s"] == 0


def test_queue_worker_survives_a_failed_pass(server, monkeypatch):
    engine = server.engine
    real = engine.process_pending
    failures = []

    def fail_once():
        if not failures:
            failures.append(1)
            raise RuntimeError("planted failure")
        return real()

    monkeypatch.setattr(engine, "process_pending", fail_once)
    _, first = call(server, "POST", "/v1/requests", store_app_doc("first"))
    deadline = time.monotonic() + 10
    while not failures and time.monotonic() < deadline:
        time.sleep(0.02)
    assert failures
    _, later = call(server, "POST", "/v1/requests", store_app_doc("later"))
    assert poll_terminal(server, later["id"])["state"] == "placed"
    assert poll_terminal(server, first["id"])["state"] == "placed"


# -- message framing: every request gets exactly one JSON reply ---------------------


def raw_exchange(server, data, timeout=2.0):
    """Send raw bytes on a new connection and read until the server closes it
    (socket.timeout if it does not within `timeout` seconds). Returns each
    reply as (status, headers, JSON body); every reply must be JSON."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=timeout) as sock:
        sock.sendall(data)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    replies = []
    while received:
        head, sep, rest = received.partition(b"\r\n\r\n")
        assert sep, received
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {k.lower(): v for k, v in (line.split(": ", 1) for line in lines)}
        assert headers["content-type"] == "application/json", received
        length = int(headers["content-length"])
        replies.append((int(status_line.split()[1]), headers, json.loads(rest[:length])))
        received = rest[length:]
    return replies


BODY = b'{"component": {"name": "x"}}'


@pytest.mark.parametrize("framing,body,status,error", [
    (b"Content-Length: -1", BODY, 400, "bad_length"),
    (b"Content-Length: abc", BODY, 400, "bad_length"),
    (b"Content-Length: 1e3", BODY, 400, "bad_length"),
    (b"Content-Length: 28\r\nContent-Length: 27", BODY, 400, "bad_length"),
    (b"Content-Length: 99999999999999999999", BODY, 413, "too_large"),
    (b"Content-Length: 1048577", BODY, 413, "too_large"),
    (b"Transfer-Encoding: chunked", b"1c\r\n" + BODY + b"\r\n0\r\n\r\n", 411,
     "length_required"),
    (b"Transfer-Encoding: chunked\r\nContent-Length: 28", BODY, 411, "length_required"),
], ids=["negative", "not-digits", "exponent", "conflicting", "overflow", "over-limit",
        "chunked", "chunked-with-length"])
def test_badly_framed_body_gets_one_json_error_and_a_close(server, framing, body,
                                                          status, error):
    request = b"POST /v1/requests HTTP/1.1\r\nHost: t\r\n" + framing + b"\r\n\r\n" + body
    [(got, _, payload)] = raw_exchange(server, request)  # and then a close
    assert (got, payload["error"]) == (status, error)
    # Nothing was submitted, and a valid request on a new connection succeeds.
    assert call(server, "GET", "/v1/requests") == (200, [])
    _, submitted = call(server, "POST", "/v1/requests", store_app_doc())
    assert poll_terminal(server, submitted["id"])["state"] == "placed"


def test_body_of_a_get_is_read_and_not_taken_for_the_next_request(server):
    stream = (
        b"GET /v1/nodes HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"
        b"GET /v1/report HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    (s1, _, nodes), (s2, _, report) = raw_exchange(server, stream)
    assert (s1, s2) == (200, 200)
    assert [n["id"] for n in nodes] == ["cloud", "cloudlet-a", "gateway-a"]
    assert report["horizon_s"] == 0


def test_content_length_with_leading_zeros_and_spaces_is_read(server):
    stream = (
        b"POST /v1/requests HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
        b"Content-Length:  0028 \r\n\r\n" + BODY
    )
    [(status, _, payload)] = raw_exchange(server, stream)
    assert (status, payload["state"]) == (202, "queued")
