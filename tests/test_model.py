from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from foglet.model import (
    ComputeProfile,
    NetworkProfile,
    ReferenceError_,
    ResourceVector,
    ValidationError,
    check_references,
    default_thresholds,
    mbps,
    request_to_document,
    validate_request,
)


def test_requirement_free_request_validates():
    request = validate_request(
        {"component": {"name": "face_detection", "image": "img"}, "requirements": []},
        request_id="r1",
    )
    assert request.requirements == ()
    assert request.component.name == "face_detection"


def test_negative_vcpus_rejected():
    with pytest.raises(ValidationError) as err:
        validate_request({
            "component": {"name": "x"},
            "requirements": [{"compute": {"vcpus": -1}}],
        })
    assert err.value.field == "compute.vcpus"
    assert "negative" in err.value.reason


@pytest.mark.parametrize("fieldname", ["ram_mib", "disk_gib"])
@pytest.mark.parametrize("value", [1.9, 0.5, -5, True])
def test_memory_and_disk_are_whole_numbers_never_rounded(fieldname, value):
    with pytest.raises(ValidationError) as err:
        validate_request({
            "component": {"name": "x"},
            "requirements": [{"compute": {fieldname: value}}],
        })
    assert err.value.field == f"compute.{fieldname}"


def test_an_integral_float_is_a_whole_number():
    request = validate_request({
        "component": {"name": "x"},
        "requirements": [{"compute": {"ram_mib": 256.0, "disk_gib": 2}}],
    })
    (compute,) = request.requirements
    assert (compute.request.ram_mib, compute.request.disk_gib) == (256, 2)


def test_network_requirement_parses_with_profile():
    request = validate_request({
        "component": {"name": "face_detection"},
        "requirements": [
            {"network": {"profile": "signaling_and_video_streaming", "endpoint": "camera-1"}}
        ],
    })
    (req,) = request.network_requirements
    assert req.profile is NetworkProfile.SIGNALING_AND_VIDEO_STREAMING
    assert req.endpoint == "camera-1"


def test_profile_defaults_applied():
    request = validate_request({
        "component": {"name": "x"},
        "requirements": [
            {"compute": {"vcpus": 1}},
            {"network": {"endpoint": "cam"}},
        ],
    })
    assert request.compute.profile is ComputeProfile.GENERAL_PURPOSE
    assert request.network_requirements[0].profile is NetworkProfile.BEST_EFFORT


def test_camelcase_profile_names_accepted():
    request = validate_request({
        "component": {"name": "x"},
        "requirements": [
            {"compute": {"profile": "ComputeOptimized", "vcpus": 1}},
            {"network": {"profile": "InteractiveApplication", "endpoint": "cam"}},
        ],
    })
    assert request.compute.profile is ComputeProfile.COMPUTE_OPTIMIZED


@pytest.mark.parametrize("requirements, field", [
    ([{"compute": {"vcpus": 1}}, {"compute": {"vcpus": 2}}], "requirements"),
    ([{"location": {"region": "a"}}, {"location": {"region": "b"}}], "requirements"),
    ([{"network": {"endpoint": "cam"}}, {"network": {"endpoint": "cam"}}], "requirements"),
    ([{"compute": {"profile": "warp_speed"}}], "compute.profile"),
    ([{"network": {"profile": "quantum", "endpoint": "cam"}}], "requirements[0].network.profile"),
    ([{"network": {}}], "requirements[0].network.endpoint"),
    ([{}], "requirements[0]"),
], ids=["dup-compute", "dup-location", "dup-network-endpoint",
        "bad-compute-profile", "bad-network-profile", "missing-endpoint", "empty-req"])
def test_structural_defects_rejected(requirements, field):
    with pytest.raises(ValidationError) as err:
        validate_request({"component": {"name": "x"}, "requirements": requirements})
    assert err.value.field == field


def test_flow_needs_exactly_one_peer():
    with pytest.raises(ValidationError):
        validate_request({"component": {
            "name": "x",
            "flows": [{"rate_mbps": 1, "from_endpoint": "a", "to_component": "b"}],
        }})
    with pytest.raises(ValidationError):
        validate_request({"component": {"name": "x", "flows": [{"rate_mbps": 1}]}})


def test_flow_rate_must_be_non_negative():
    with pytest.raises(ValidationError) as err:
        validate_request({"component": {
            "name": "x", "flows": [{"from_endpoint": "cam", "rate_mbps": -0.5}],
        }})
    assert "rate_mbps" in err.value.field


def test_check_references_unknown_endpoint_and_region():
    request = validate_request({
        "component": {"name": "x"},
        "requirements": [{"network": {"endpoint": "nope"}}],
    })
    with pytest.raises(ReferenceError_):
        check_references(request, known_endpoints=["cam"], known_regions=["metro"])

    request = validate_request({
        "component": {"name": "x"},
        "requirements": [{"location": {"region": "atlantis"}}],
    })
    with pytest.raises(ReferenceError_):
        check_references(request, known_endpoints=[], known_regions=["metro"])


# -- threshold table ---------------------------------------------------------


def test_best_effort_thresholds_impose_nothing():
    row = default_thresholds()[NetworkProfile.BEST_EFFORT]
    assert row.min_bandwidth_mbps is None
    assert row.max_latency_ms is None
    assert row.max_jitter_ms is None


def test_streaming_threshold_values():
    table = default_thresholds()
    svs = table[NetworkProfile.SIGNALING_AND_VIDEO_STREAMING]
    assert svs.min_bandwidth_mbps == 4
    assert svs.max_latency_ms == 300
    interactive = table[NetworkProfile.INTERACTIVE_APPLICATION]
    assert interactive.min_bandwidth_mbps == 1
    assert interactive.max_latency_ms == 100
    rtv = table[NetworkProfile.INTERACTIVE_REAL_TIME_VIDEO]
    assert rtv.max_jitter_ms == 10
    assert rtv.max_latency_ms == 50


# -- resource vector arithmetic -----------------------------------------------

resource_vectors = st.builds(
    ResourceVector,
    vcpus=st.integers(0, 64).map(lambda n: n / 4),
    ram_mib=st.integers(0, 1 << 20),
    disk_gib=st.integers(0, 10_000),
)


@given(resource_vectors, resource_vectors)
def test_add_then_subtract_is_identity(a, b):
    assert (a + b) - b == a


@given(resource_vectors, resource_vectors)
def test_fits_within_is_componentwise(a, b):
    total = a + b
    assert a.fits_within(total)
    assert b.fits_within(total)
    if not a.is_zero():
        assert not total.fits_within(total - a) or a.is_zero()


def test_negative_vector_rejected():
    with pytest.raises(ValueError):
        ResourceVector(-1, 0, 0)


# -- document round-trip --------------------------------------------------------

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
rates = st.integers(0, 400).map(lambda n: n / 10)

flow_docs = st.builds(
    lambda key, peer, rate: {key: peer, "rate_mbps": rate},
    st.sampled_from(["from_endpoint", "to_endpoint", "to_component", "from_component"]),
    identifiers,
    rates,
)


@st.composite
def request_docs(draw):
    requirements = []
    if draw(st.booleans()):
        requirements.append({"compute": {
            "profile": draw(st.sampled_from([p.value for p in ComputeProfile])),
            "vcpus": draw(st.integers(0, 16)),
            "ram_mib": draw(st.integers(0, 4096)),
            "disk_gib": draw(st.integers(0, 100)),
        }})
    endpoints = draw(st.lists(identifiers, max_size=3, unique=True))
    for endpoint in endpoints:
        requirements.append({"network": {
            "profile": draw(st.sampled_from([p.value for p in NetworkProfile])),
            "endpoint": endpoint,
        }})
    if draw(st.booleans()):
        requirements.append({"location": {"region": draw(identifiers)}})
    for label in draw(st.lists(identifiers, max_size=2)):
        requirements.append({"access": {"label": label}})
    return {
        "id": draw(identifiers),
        "tenant": draw(identifiers),
        "component": {
            "name": draw(identifiers),
            "image": draw(identifiers),
            "flows": draw(st.lists(flow_docs, max_size=3)),
        },
        "requirements": requirements,
    }


@given(request_docs())
def test_serialization_round_trip(doc):
    first = validate_request(doc)
    second = validate_request(request_to_document(first))
    assert first == second


@given(request_docs())
def test_defaulting_is_idempotent(doc):
    once = validate_request(doc)
    twice = validate_request(request_to_document(validate_request(request_to_document(once))))
    assert once == twice


def test_mbps_exact_decimal_conversion():
    assert mbps(0.2) == Fraction(1, 5)
    assert mbps(4.0) == Fraction(4)
    assert mbps("1/5") == Fraction(1, 5)
