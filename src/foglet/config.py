"""Engine configuration: every tunable the scenarios depend on lives here.

Scenarios must be reproducible from config alone, so nothing below is
hard-coded elsewhere: the threshold table, scoring weights, the default
compute footprint and the cache drain multiplier are all overridable from a
config document.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional

from .model import (
    NetworkProfile,
    ResourceVector,
    Tier,
    ThresholdRow,
    default_thresholds,
    mbps,
)


@dataclass(frozen=True)
class SchedulerWeights:
    capacity_fit: float = 0.4
    network_slack: float = 0.3
    tier_preference: float = 0.3

    def __post_init__(self):
        total = self.capacity_fit + self.network_slack + self.tier_preference
        if min(self.capacity_fit, self.network_slack, self.tier_preference) < 0:
            raise ValueError("scheduler weights must be non-negative")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"scheduler weights must sum to 1, got {total}")


DEFAULT_TIER_PREFERENCE = {
    Tier.CLOUD: 1.0,
    Tier.EDGE_CLOUDLET: 0.6,
    Tier.EDGE_GATEWAY: 0.3,
}


@dataclass(frozen=True)
class EngineConfig:
    thresholds: Mapping[NetworkProfile, ThresholdRow] = field(default_factory=default_thresholds)
    weights: SchedulerWeights = field(default_factory=SchedulerWeights)
    tier_preference: Mapping[Tier, float] = field(
        default_factory=lambda: dict(DEFAULT_TIER_PREFERENCE)
    )
    # Reserved for components that carry no explicit compute requirement.
    default_footprint: ResourceVector = field(
        default_factory=lambda: ResourceVector(0.5, 512, 1)
    )
    drain_rate_multiplier: Fraction = Fraction(2)

    def threshold_for(self, profile: NetworkProfile) -> ThresholdRow:
        return self.thresholds.get(profile, ThresholdRow())


def _parse_threshold_row(doc: Mapping) -> ThresholdRow:
    def get(key):
        v = doc.get(key)
        return None if v is None else mbps(v)

    return ThresholdRow(
        min_bandwidth_mbps=get("min_bandwidth_mbps"),
        max_latency_ms=get("max_latency_ms"),
        max_jitter_ms=get("max_jitter_ms"),
    )


_PROFILE_KEYS = {p.value: p for p in NetworkProfile}


def config_from_document(doc: Optional[Mapping], base: Optional[EngineConfig] = None) -> EngineConfig:
    """Build a config from a parsed document, overriding `base` field by field."""
    cfg = base or EngineConfig()
    if not doc:
        return cfg
    unknown = set(doc) - {
        "thresholds", "weights", "tier_preference", "default_footprint",
        "drain_rate_multiplier",
    }
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    if "thresholds" in doc:
        table = dict(cfg.thresholds)
        for name, row_doc in doc["thresholds"].items():
            profile = _PROFILE_KEYS.get(name)
            if profile is None:
                raise ValueError(f"unknown network profile in config: {name!r}")
            table[profile] = _parse_threshold_row(row_doc or {})
        cfg = replace(cfg, thresholds=table)
    if "weights" in doc:
        w = doc["weights"]
        cfg = replace(cfg, weights=SchedulerWeights(
            capacity_fit=float(w.get("capacity_fit", cfg.weights.capacity_fit)),
            network_slack=float(w.get("network_slack", cfg.weights.network_slack)),
            tier_preference=float(w.get("tier_preference", cfg.weights.tier_preference)),
        ))
    if "tier_preference" in doc:
        prefs = dict(cfg.tier_preference)
        for name, value in doc["tier_preference"].items():
            prefs[Tier(name)] = float(value)
        cfg = replace(cfg, tier_preference=prefs)
    if "default_footprint" in doc:
        cfg = replace(cfg, default_footprint=ResourceVector.from_dict(doc["default_footprint"]))
    if "drain_rate_multiplier" in doc:
        cfg = replace(cfg, drain_rate_multiplier=mbps(doc["drain_rate_multiplier"]))
    return cfg
