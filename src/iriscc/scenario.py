"""Scenario descriptions: one bottleneck link plus a set of flows.

Scenarios are plain JSON documents.  Canonical units inside the parsed
objects are packets/ms and ms; bandwidth may be written either
canonically (``bandwidth_schedule`` in packets/ms) or in Mbps
(``bandwidth_mbps`` / ``bandwidth_schedule_mbps``), converted at parse
time with the link's ``packet_bytes``.  Writing a parsed scenario back
out always uses the canonical form, and re-parsing that output yields
an identical scenario.

Example document::

    {
      "duration_ms": 30000,
      "link": {
        "bandwidth_mbps": 20.0,
        "prop_delay_ms": 25.0,
        "queue_capacity_pkts": 104,
        "random_loss": 0.0,
        "seed": 1,
        "packet_bytes": 1200
      },
      "flows": [
        {"controller": "iris", "start_ms": 0.0, "params": {}}
      ]
    }
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, NamedTuple

from .units import DEFAULT_PACKET_BYTES, mbps_to_pkts_per_ms

CONTROLLER_KINDS = ("iris", "aimd", "vegas", "constant")


class ScenarioError(ValueError):
    """Invalid scenario content; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class LinkConfig(NamedTuple):
    """The shared bottleneck.

    ``bandwidth_schedule`` is a sequence of ``(time_ms, capacity)``
    pairs, capacity in packets/ms; the first entry must start at 0 and
    each change applies to packets whose service starts after its
    instant.  ``queue_capacity`` bounds the drop-tail buffer including
    the packet being transmitted.  ``prop_delay`` is the one-way
    propagation delay (twice that is the no-load RTT).
    """

    bandwidth_schedule: tuple[tuple[float, float], ...]
    prop_delay: float
    queue_capacity: int
    random_loss: float = 0.0
    seed: int = 0
    packet_bytes: int = DEFAULT_PACKET_BYTES

    def validate(self) -> None:
        sched = self.bandwidth_schedule
        if not sched:
            raise ScenarioError("link.bandwidth_schedule", "must not be empty")
        if sched[0][0] != 0:
            raise ScenarioError("link.bandwidth_schedule", "first entry must start at time 0")
        prev_t = -math.inf
        for t, cap in sched:
            if not t > prev_t:  # a NaN time fails too
                raise ScenarioError("link.bandwidth_schedule", "times must be strictly increasing")
            if not (math.isfinite(cap) and cap > 0):
                raise ScenarioError("link.bandwidth_schedule", f"capacity must be positive, got {cap}")
            prev_t = t
        if not (math.isfinite(self.prop_delay) and self.prop_delay > 0):
            raise ScenarioError("link.prop_delay_ms", f"must be positive, got {self.prop_delay}")
        if self.queue_capacity < 1:
            raise ScenarioError("link.queue_capacity_pkts", f"must be >= 1, got {self.queue_capacity}")
        if not 0.0 <= self.random_loss < 1.0:
            raise ScenarioError("link.random_loss", f"must be in [0, 1), got {self.random_loss}")
        if self.packet_bytes <= 0:
            raise ScenarioError("link.packet_bytes", f"must be positive, got {self.packet_bytes}")

    def mean_capacity(self, t0: float, t1: float) -> float:
        """Time-weighted mean capacity over ``(t0, t1]``, packets/ms.

        An empty window returns the capacity in force at ``t0``.
        """
        sched = self.bandwidth_schedule
        if t1 <= t0:
            return next((cap for start, cap in reversed(sched) if start <= t0), sched[0][1])
        ends = [start for start, _ in sched[1:]] + [math.inf]
        total = 0.0
        for (start, cap), end in zip(sched, ends):
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                total += cap * (hi - lo)
        return total / (t1 - t0)


class FlowSpec(NamedTuple):
    """One sender: which controller drives it, when it starts, and an
    optional per-flow one-way delay overriding the link's."""

    controller: str
    start_time: float = 0.0
    prop_delay: float | None = None
    params: dict = {}  # shared default: never mutated, only read or copied

    def validate(self, prefix: str) -> None:
        if self.controller not in CONTROLLER_KINDS:
            raise ScenarioError(
                f"{prefix}.controller",
                f"unknown controller {self.controller!r}; expected one of {', '.join(CONTROLLER_KINDS)}",
            )
        if not (math.isfinite(self.start_time) and self.start_time >= 0):
            raise ScenarioError(f"{prefix}.start_ms", f"must be >= 0, got {self.start_time}")
        if self.prop_delay is not None and not (math.isfinite(self.prop_delay) and self.prop_delay > 0):
            raise ScenarioError(f"{prefix}.prop_delay_ms", f"must be positive, got {self.prop_delay}")
        if not isinstance(self.params, dict):
            raise ScenarioError(f"{prefix}.params", "must be an object")


class Scenario(NamedTuple):
    link: LinkConfig
    flows: tuple[FlowSpec, ...]
    duration: float  # ms

    def validate(self) -> None:
        self.link.validate()
        if not self.flows:
            raise ScenarioError("flows", "need at least one flow")
        for i, flow in enumerate(self.flows):
            flow.validate(f"flows[{i}]")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ScenarioError("duration_ms", f"must be >= 0, got {self.duration}")


def _require(mapping: dict, key: str, prefix: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{prefix}.{key}" if prefix else key, "is required")
    return mapping[key]


def _number(value: Any, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field_name, f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(field_name, "integer is too large for a float") from None


def _integer(value: Any, field_name: str) -> int:
    number = _number(value, field_name)
    if not number.is_integer():
        raise ScenarioError(field_name, f"must be a whole number, got {value!r}")
    return int(number)


def _link_from_dict(data: Any) -> LinkConfig:
    if not isinstance(data, dict):
        raise ScenarioError("link", "must be an object")
    packet_bytes = _integer(data.get("packet_bytes", DEFAULT_PACKET_BYTES), "link.packet_bytes")
    bandwidth_keys = [k for k in ("bandwidth_schedule", "bandwidth_schedule_mbps", "bandwidth_mbps") if k in data]
    if len(bandwidth_keys) != 1:
        raise ScenarioError(
            "link.bandwidth_schedule",
            "give exactly one of bandwidth_schedule, bandwidth_schedule_mbps, bandwidth_mbps",
        )
    key = bandwidth_keys[0]
    if key == "bandwidth_mbps":
        mbps = _number(data[key], "link.bandwidth_mbps")
        schedule = ((0.0, mbps_to_pkts_per_ms(mbps, packet_bytes)),)
    else:
        raw = data[key]
        if not isinstance(raw, list) or not all(isinstance(e, list) and len(e) == 2 for e in raw):
            raise ScenarioError(f"link.{key}", "must be a list of [time_ms, value] pairs")
        entries = []
        for t, value in raw:
            t = _number(t, f"link.{key}")
            value = _number(value, f"link.{key}")
            if key == "bandwidth_schedule_mbps":
                value = mbps_to_pkts_per_ms(value, packet_bytes)
            entries.append((t, value))
        schedule = tuple(entries)
    return LinkConfig(
        bandwidth_schedule=schedule,
        prop_delay=_number(_require(data, "prop_delay_ms", "link"), "link.prop_delay_ms"),
        queue_capacity=_integer(_require(data, "queue_capacity_pkts", "link"), "link.queue_capacity_pkts"),
        random_loss=_number(data.get("random_loss", 0.0), "link.random_loss"),
        seed=_integer(data.get("seed", 0), "link.seed"),
        packet_bytes=packet_bytes,
    )


def _flow_from_dict(data: Any, prefix: str) -> FlowSpec:
    if not isinstance(data, dict):
        raise ScenarioError(prefix, "must be an object")
    controller = _require(data, "controller", prefix)
    if not isinstance(controller, str):
        raise ScenarioError(f"{prefix}.controller", f"must be a string, got {controller!r}")
    prop = data.get("prop_delay_ms")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"{prefix}.params", "must be an object")
    return FlowSpec(
        controller=controller,
        start_time=_number(data.get("start_ms", 0.0), f"{prefix}.start_ms"),
        prop_delay=None if prop is None else _number(prop, f"{prefix}.prop_delay_ms"),
        params=dict(params),
    )


def scenario_from_dict(data: Any) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario", "top level must be an object")
    flows_raw = _require(data, "flows", "")
    if not isinstance(flows_raw, list):
        raise ScenarioError("flows", "must be a list")
    scenario = Scenario(
        link=_link_from_dict(_require(data, "link", "")),
        flows=tuple(_flow_from_dict(f, f"flows[{i}]") for i, f in enumerate(flows_raw)),
        duration=_number(_require(data, "duration_ms", ""), "duration_ms"),
    )
    scenario.validate()
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON form; re-parsing it reproduces the scenario."""
    link = scenario.link
    out_flows = []
    for flow in scenario.flows:
        entry: dict[str, Any] = {"controller": flow.controller, "start_ms": flow.start_time}
        if flow.prop_delay is not None:
            entry["prop_delay_ms"] = flow.prop_delay
        if flow.params:
            entry["params"] = dict(flow.params)
        out_flows.append(entry)
    return {
        "duration_ms": scenario.duration,
        "link": {
            "bandwidth_schedule": [[t, cap] for t, cap in link.bandwidth_schedule],
            "prop_delay_ms": link.prop_delay,
            "queue_capacity_pkts": link.queue_capacity,
            "random_loss": link.random_loss,
            "seed": link.seed,
            "packet_bytes": link.packet_bytes,
        },
        "flows": out_flows,
    }


def load_scenario(path: str | Path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError("scenario", f"not valid JSON ({exc})") from exc
    return scenario_from_dict(data)


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
