"""Domain types shared by every subsystem, plus deployment-request validation.

All types here are immutable values after construction and safe to share
across threads without coordination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union


def mbps(value) -> Fraction:
    """Convert a rate/bandwidth value to an exact Fraction of Mbit/s.

    Floats are routed through their shortest decimal repr so that the value
    written in a config file (e.g. 0.2) is represented exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a rate")
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def whole_number(value, what: str) -> int:
    """A MiB or GiB count: a non-negative whole number, never a boolean. An
    integral float such as 2.0 is taken as its integer; anything else raises
    ValueError naming `what`, so nothing is rounded away."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} is not a number: {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} is not a whole number: {value!r}")
    if value < 0:
        raise ValueError(f"{what} is negative: {value!r}")
    return int(value)


class Tier(enum.Enum):
    """Infrastructure tiers, ordered cloud-to-things.

    Swarm-of-things nodes are pure data producers: they never host
    application components.
    """

    CLOUD = "cloud"
    EDGE_CLOUDLET = "edge_cloudlet"
    EDGE_GATEWAY = "edge_gateway"
    SWARM_OF_THINGS = "swarm_of_things"

    @property
    def hostable(self) -> bool:
        return self is not Tier.SWARM_OF_THINGS


class ComputeProfile(enum.Enum):
    GENERAL_PURPOSE = "general_purpose"
    COMPUTE_OPTIMIZED = "compute_optimized"
    MEMORY_OPTIMIZED = "memory_optimized"
    STORAGE_OPTIMIZED = "storage_optimized"


class NetworkProfile(enum.Enum):
    BEST_EFFORT = "best_effort"
    INTERACTIVE_APPLICATION = "interactive_application"
    SIGNALING_AND_VIDEO_STREAMING = "signaling_and_video_streaming"
    INTERACTIVE_REAL_TIME_VIDEO = "interactive_real_time_video"


@dataclass(frozen=True, order=False)
class ResourceVector:
    """A bundle of node resources: vCPU cores, RAM in MiB, disk in GiB.

    Comparison is componentwise: ``a.fits_within(b)`` iff every field of
    ``a`` is <= the corresponding field of ``b``. Arithmetic is
    componentwise as well; subtraction below zero is a caller bug and
    raises rather than silently clamping.
    """

    vcpus: float = 0.0
    ram_mib: int = 0
    disk_gib: int = 0

    def __post_init__(self):
        if self.vcpus < 0 or self.ram_mib < 0 or self.disk_gib < 0:
            raise ValueError(f"resource vector has a negative field: {self}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.vcpus + other.vcpus,
            self.ram_mib + other.ram_mib,
            self.disk_gib + other.disk_gib,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.vcpus - other.vcpus,
            self.ram_mib - other.ram_mib,
            self.disk_gib - other.disk_gib,
        )

    def fits_within(self, other: "ResourceVector") -> bool:
        return (
            self.vcpus <= other.vcpus
            and self.ram_mib <= other.ram_mib
            and self.disk_gib <= other.disk_gib
        )

    def shortfalls(self, available: "ResourceVector") -> dict:
        """Per-dimension amounts by which this vector exceeds `available`."""
        out = {}
        if self.vcpus > available.vcpus:
            out["vcpus"] = self.vcpus - available.vcpus
        if self.ram_mib > available.ram_mib:
            out["ram_mib"] = self.ram_mib - available.ram_mib
        if self.disk_gib > available.disk_gib:
            out["disk_gib"] = self.disk_gib - available.disk_gib
        return out

    def is_zero(self) -> bool:
        return self.vcpus == 0 and self.ram_mib == 0 and self.disk_gib == 0

    def to_dict(self) -> dict:
        return {"vcpus": self.vcpus, "ram_mib": self.ram_mib, "disk_gib": self.disk_gib}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ResourceVector":
        return cls(
            vcpus=float(doc.get("vcpus", 0.0)),
            ram_mib=int(doc.get("ram_mib", 0)),
            disk_gib=int(doc.get("disk_gib", 0)),
        )


ZERO_RESOURCES = ResourceVector(0.0, 0, 0)


@dataclass(frozen=True)
class ThresholdRow:
    """Network-profile thresholds; a None field imposes no constraint."""

    min_bandwidth_mbps: Optional[Fraction] = None
    max_latency_ms: Optional[Fraction] = None
    max_jitter_ms: Optional[Fraction] = None

    def to_dict(self) -> dict:
        def num(v):
            return None if v is None else float(v)

        return {
            "min_bandwidth_mbps": num(self.min_bandwidth_mbps),
            "max_latency_ms": num(self.max_latency_ms),
            "max_jitter_ms": num(self.max_jitter_ms),
        }


ProfileThresholds = Mapping[NetworkProfile, ThresholdRow]


def default_thresholds() -> dict:
    """Built-in per-profile threshold table.

    Best-effort imposes nothing. The numeric rows are defaults chosen so the
    shipped scenarios are reproducible from config alone; every value can be
    overridden in the engine config.
    """
    return {
        NetworkProfile.BEST_EFFORT: ThresholdRow(),
        NetworkProfile.INTERACTIVE_APPLICATION: ThresholdRow(
            min_bandwidth_mbps=mbps(1), max_latency_ms=Fraction(100)
        ),
        NetworkProfile.SIGNALING_AND_VIDEO_STREAMING: ThresholdRow(
            min_bandwidth_mbps=mbps(4), max_latency_ms=Fraction(300)
        ),
        NetworkProfile.INTERACTIVE_REAL_TIME_VIDEO: ThresholdRow(
            min_bandwidth_mbps=mbps(4),
            max_latency_ms=Fraction(50),
            max_jitter_ms=Fraction(10),
        ),
    }


class FlowPeer(enum.Enum):
    ENDPOINT = "endpoint"
    COMPONENT = "component"


@dataclass(frozen=True)
class FlowSpec:
    """A constant-rate traffic stream a component exchanges with a peer.

    `inbound` means the peer produces and the component consumes (e.g. a
    camera stream); outbound means the component ships data toward the peer.
    """

    rate_mbps: Fraction
    peer: str
    peer_kind: FlowPeer
    inbound: bool

    def to_dict(self) -> dict:
        if self.peer_kind is FlowPeer.ENDPOINT:
            key = "from_endpoint" if self.inbound else "to_endpoint"
        else:
            key = "from_component" if self.inbound else "to_component"
        return {"rate_mbps": float(self.rate_mbps), key: self.peer}


@dataclass(frozen=True)
class ApplicationComponent:
    """An independently deployable unit shipped as an opaque container image."""

    name: str
    image: str = ""
    flows: tuple = ()  # tuple[FlowSpec, ...]

    def flows_with_endpoint(self, endpoint_id: str) -> "tuple[FlowSpec, ...]":
        return tuple(
            f for f in self.flows
            if f.peer_kind is FlowPeer.ENDPOINT and f.peer == endpoint_id
        )


@dataclass(frozen=True)
class ComputeRequirement:
    profile: ComputeProfile = ComputeProfile.GENERAL_PURPOSE
    request: ResourceVector = ZERO_RESOURCES


@dataclass(frozen=True)
class NetworkRequirement:
    endpoint: str
    profile: NetworkProfile = NetworkProfile.BEST_EFFORT


@dataclass(frozen=True)
class LocationRequirement:
    region: str


@dataclass(frozen=True)
class AccessRightsRequirement:
    label: str


Requirement = Union[
    ComputeRequirement, NetworkRequirement, LocationRequirement, AccessRightsRequirement
]


@dataclass(frozen=True)
class DeploymentRequest:
    """A tenant submission: one component plus zero or more requirements."""

    id: str
    tenant: str
    component: ApplicationComponent
    requirements: tuple = ()  # tuple[Requirement, ...]
    submitted_at: Fraction = Fraction(0)

    @property
    def compute(self) -> Optional[ComputeRequirement]:
        for r in self.requirements:
            if isinstance(r, ComputeRequirement):
                return r
        return None

    @property
    def network_requirements(self) -> "tuple[NetworkRequirement, ...]":
        return tuple(r for r in self.requirements if isinstance(r, NetworkRequirement))

    @property
    def location(self) -> Optional[LocationRequirement]:
        for r in self.requirements:
            if isinstance(r, LocationRequirement):
                return r
        return None

    @property
    def access_labels(self) -> "tuple[str, ...]":
        return tuple(
            r.label for r in self.requirements if isinstance(r, AccessRightsRequirement)
        )


@dataclass(frozen=True)
class Placement:
    """A running binding of a component to a node."""

    request_id: str
    tenant: str
    component: str
    node_id: str
    allocated: ResourceVector


class ValidationError(Exception):
    """A structurally invalid request document."""

    def __init__(self, fieldname: str, reason: str):
        self.field = fieldname
        self.reason = reason
        super().__init__(f"{fieldname}: {reason}")


class ReferenceError_(Exception):
    """A structurally valid request naming an unknown endpoint or region."""

    def __init__(self, fieldname: str, reason: str):
        self.field = fieldname
        self.reason = reason
        super().__init__(f"{fieldname}: {reason}")


_COMPUTE_PROFILE_ALIASES = {p.value: p for p in ComputeProfile}
_NETWORK_PROFILE_ALIASES = {p.value: p for p in NetworkProfile}
# Accept CamelCase spellings as they appear in operator-facing docs.
_COMPUTE_PROFILE_ALIASES.update({
    "GeneralPurpose": ComputeProfile.GENERAL_PURPOSE,
    "ComputeOptimized": ComputeProfile.COMPUTE_OPTIMIZED,
    "MemoryOptimized": ComputeProfile.MEMORY_OPTIMIZED,
    "StorageOptimized": ComputeProfile.STORAGE_OPTIMIZED,
})
_NETWORK_PROFILE_ALIASES.update({
    "BestEffort": NetworkProfile.BEST_EFFORT,
    "InteractiveApplication": NetworkProfile.INTERACTIVE_APPLICATION,
    "SignalingAndVideoStreaming": NetworkProfile.SIGNALING_AND_VIDEO_STREAMING,
    "InteractiveRealTimeVideo": NetworkProfile.INTERACTIVE_REAL_TIME_VIDEO,
})


def _parse_flow(doc: Mapping, index: int) -> FlowSpec:
    where = f"component.flows[{index}]"
    if not isinstance(doc, Mapping):
        raise ValidationError(where, "flow must be a mapping")
    keys = [k for k in ("from_endpoint", "to_endpoint", "to_component", "from_component")
            if k in doc]
    if len(keys) != 1:
        raise ValidationError(where, "flow needs exactly one of from_endpoint/to_endpoint/to_component/from_component")
    key = keys[0]
    peer = doc[key]
    if not isinstance(peer, str) or not peer:
        raise ValidationError(f"{where}.{key}", "peer reference must be a non-empty string")
    rate_raw = doc.get("rate_mbps")
    if rate_raw is None:
        raise ValidationError(f"{where}.rate_mbps", "missing flow rate")
    try:
        rate = mbps(rate_raw)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}.rate_mbps", f"not a number: {rate_raw!r}")
    if rate < 0:
        raise ValidationError(f"{where}.rate_mbps", "negative")
    kind = FlowPeer.ENDPOINT if key.endswith("endpoint") else FlowPeer.COMPONENT
    return FlowSpec(rate_mbps=rate, peer=peer, peer_kind=kind, inbound=key.startswith("from"))


def _parse_compute(doc: Mapping) -> ComputeRequirement:
    profile_name = doc.get("profile")
    if profile_name is None:
        profile = ComputeProfile.GENERAL_PURPOSE
    else:
        profile = _COMPUTE_PROFILE_ALIASES.get(profile_name)
        if profile is None:
            raise ValidationError("compute.profile", f"unknown profile {profile_name!r}")
    v = doc.get("vcpus", 0)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValidationError("compute.vcpus", f"not a number: {v!r}")
    if v < 0:
        raise ValidationError("compute.vcpus", "negative")
    counts = {}
    for fieldname in ("ram_mib", "disk_gib"):
        try:
            counts[fieldname] = whole_number(doc.get(fieldname, 0), fieldname)
        except ValueError as exc:
            raise ValidationError(f"compute.{fieldname}", str(exc))
    request = ResourceVector(vcpus=float(v), **counts)
    return ComputeRequirement(profile=profile, request=request)


def _parse_requirement(doc: Mapping, index: int) -> Requirement:
    where = f"requirements[{index}]"
    if not isinstance(doc, Mapping):
        raise ValidationError(where, "requirement must be a mapping")
    kinds = [k for k in ("compute", "network", "location", "access") if k in doc]
    if len(kinds) != 1:
        raise ValidationError(where, "requirement needs exactly one of compute/network/location/access")
    kind = kinds[0]
    body = doc[kind]
    if not isinstance(body, Mapping):
        raise ValidationError(f"{where}.{kind}", "must be a mapping")
    if kind == "compute":
        return _parse_compute(body)
    if kind == "network":
        endpoint = body.get("endpoint")
        if not isinstance(endpoint, str) or not endpoint:
            raise ValidationError(f"{where}.network.endpoint", "missing endpoint reference")
        profile_name = body.get("profile")
        if profile_name is None:
            profile = NetworkProfile.BEST_EFFORT
        else:
            profile = _NETWORK_PROFILE_ALIASES.get(profile_name)
            if profile is None:
                raise ValidationError(f"{where}.network.profile", f"unknown profile {profile_name!r}")
        return NetworkRequirement(endpoint=endpoint, profile=profile)
    if kind == "location":
        region = body.get("region")
        if not isinstance(region, str) or not region:
            raise ValidationError(f"{where}.location.region", "missing region id")
        return LocationRequirement(region=region)
    label = body.get("label")
    if not isinstance(label, str) or not label:
        raise ValidationError(f"{where}.access.label", "missing label")
    return AccessRightsRequirement(label=label)


def validate_request(
    raw: Mapping,
    *,
    request_id: str = "",
    tenant: Optional[str] = None,
    submitted_at: Fraction = Fraction(0),
) -> DeploymentRequest:
    """Validate a parsed request document and apply profile defaults.

    Structural validation only: endpoint and region references are resolved
    separately against a topology (see `check_references`). Raises
    ValidationError on the first defect found.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError("request", "document must be a mapping")
    comp_doc = raw.get("component")
    if not isinstance(comp_doc, Mapping):
        raise ValidationError("component", "missing component")
    name = comp_doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError("component.name", "missing component name")
    image = comp_doc.get("image", "")
    if not isinstance(image, str):
        raise ValidationError("component.image", "image must be a string")
    flows = tuple(
        _parse_flow(f, i) for i, f in enumerate(comp_doc.get("flows", []) or [])
    )
    component = ApplicationComponent(name=name, image=image, flows=flows)

    req_docs = raw.get("requirements", []) or []
    if not isinstance(req_docs, Sequence) or isinstance(req_docs, (str, bytes)):
        raise ValidationError("requirements", "must be a list")
    requirements = tuple(_parse_requirement(r, i) for i, r in enumerate(req_docs))

    if sum(1 for r in requirements if isinstance(r, ComputeRequirement)) > 1:
        raise ValidationError("requirements", "duplicate compute requirement")
    if sum(1 for r in requirements if isinstance(r, LocationRequirement)) > 1:
        raise ValidationError("requirements", "duplicate location requirement")
    seen_endpoints = set()
    for r in requirements:
        if isinstance(r, NetworkRequirement):
            if r.endpoint in seen_endpoints:
                raise ValidationError(
                    "requirements", f"duplicate network requirement for endpoint {r.endpoint!r}"
                )
            seen_endpoints.add(r.endpoint)

    return DeploymentRequest(
        id=request_id or str(raw.get("id", "")),
        tenant=tenant if tenant is not None else str(raw.get("tenant", "default")),
        component=component,
        requirements=requirements,
        submitted_at=submitted_at,
    )


def check_references(
    request: DeploymentRequest,
    known_endpoints: Iterable[str],
    known_regions: Iterable[str],
) -> None:
    """Resolve endpoint/region references against the loaded topology.

    Raises ReferenceError_ on the first unknown reference. Component-peer
    flow references are left unresolved here: the peer may legitimately be
    placed by a later request.
    """
    endpoints = set(known_endpoints)
    regions = set(known_regions)
    for r in request.requirements:
        if isinstance(r, NetworkRequirement) and r.endpoint not in endpoints:
            raise ReferenceError_("network.endpoint", f"unknown endpoint {r.endpoint!r}")
        if isinstance(r, LocationRequirement) and r.region not in regions:
            raise ReferenceError_("location.region", f"unknown region {r.region!r}")
    for i, f in enumerate(request.component.flows):
        if f.peer_kind is FlowPeer.ENDPOINT and f.peer not in endpoints:
            raise ReferenceError_(
                f"component.flows[{i}]", f"unknown endpoint {f.peer!r}"
            )


def request_to_document(request: DeploymentRequest) -> dict:
    """Serialize a request back to its document form (defaults explicit)."""
    reqs = []
    for r in request.requirements:
        if isinstance(r, ComputeRequirement):
            reqs.append({
                "compute": {
                    "profile": r.profile.value,
                    "vcpus": r.request.vcpus,
                    "ram_mib": r.request.ram_mib,
                    "disk_gib": r.request.disk_gib,
                }
            })
        elif isinstance(r, NetworkRequirement):
            reqs.append({"network": {"profile": r.profile.value, "endpoint": r.endpoint}})
        elif isinstance(r, LocationRequirement):
            reqs.append({"location": {"region": r.region}})
        else:
            reqs.append({"access": {"label": r.label}})
    return {
        "id": request.id,
        "tenant": request.tenant,
        "component": {
            "name": request.component.name,
            "image": request.component.image,
            "flows": [f.to_dict() for f in request.component.flows],
        },
        "requirements": reqs,
    }
