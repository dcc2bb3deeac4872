"""Scenario JSON parsing, validation errors, and round-tripping."""

import copy
import math

import pytest

from iriscc.scenario import (
    LinkConfig,
    Scenario,
    ScenarioError,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def base_doc():
    return {
        "duration_ms": 30_000,
        "link": {
            "bandwidth_mbps": 20.0,
            "prop_delay_ms": 25.0,
            "queue_capacity_pkts": 104,
            "random_loss": 0.0,
            "seed": 1,
        },
        "flows": [
            {"controller": "iris", "start_ms": 0.0},
            {"controller": "constant", "start_ms": 5000.0,
             "prop_delay_ms": 75.0, "params": {"rate": 0.5}},
        ],
    }


def expect_error(doc, field):
    with pytest.raises(ScenarioError) as excinfo:
        scenario_from_dict(doc)
    assert excinfo.value.field == field


# --- parsing ---------------------------------------------------------------------

def test_parse_basic_document():
    sc = scenario_from_dict(base_doc())
    assert sc.duration == 30_000.0
    assert sc.link.bandwidth_schedule == ((0.0, 2.0833333333333335),)
    assert sc.link.prop_delay == 25.0
    assert len(sc.flows) == 2
    assert sc.flows[1].params == {"rate": 0.5}
    assert sc.flows[1].prop_delay == 75.0
    assert sc.flows[0].prop_delay is None


def test_parse_schedule_in_mbps():
    doc = base_doc()
    del doc["link"]["bandwidth_mbps"]
    doc["link"]["bandwidth_schedule_mbps"] = [[0.0, 19.2], [5000.0, 9.6]]
    sc = scenario_from_dict(doc)
    assert sc.link.bandwidth_schedule == ((0.0, 2.0), (5000.0, 1.0))


def test_parse_schedule_canonical_units():
    doc = base_doc()
    del doc["link"]["bandwidth_mbps"]
    doc["link"]["bandwidth_schedule"] = [[0.0, 2.0]]
    sc = scenario_from_dict(doc)
    assert sc.link.bandwidth_schedule == ((0.0, 2.0),)


def test_zero_duration_is_allowed():
    doc = base_doc()
    doc["duration_ms"] = 0
    assert scenario_from_dict(doc).duration == 0.0


# --- round-trip ---------------------------------------------------------------------

def test_dict_round_trip_is_identity():
    sc = scenario_from_dict(base_doc())
    again = scenario_from_dict(scenario_to_dict(sc))
    assert again == sc


def test_file_round_trip(tmp_path):
    sc = scenario_from_dict(base_doc())
    path = tmp_path / "scenario.json"
    dump_scenario(sc, path)
    assert load_scenario(path) == sc


def test_dump_is_stable(tmp_path):
    sc = scenario_from_dict(base_doc())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_scenario(sc, a)
    dump_scenario(load_scenario(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


# --- validation errors ---------------------------------------------------------------

def test_bandwidth_must_be_given_exactly_once():
    doc = base_doc()
    doc["link"]["bandwidth_schedule"] = [[0.0, 2.0]]
    expect_error(doc, "link.bandwidth_schedule")
    doc = base_doc()
    del doc["link"]["bandwidth_mbps"]
    expect_error(doc, "link.bandwidth_schedule")


@pytest.mark.parametrize("key,field", [
    ("duration_ms", "duration_ms"),
    ("link", "link"),
    ("flows", "flows"),
])
def test_missing_top_level_keys(key, field):
    doc = base_doc()
    del doc[key]
    expect_error(doc, field)


def test_missing_link_fields():
    doc = base_doc()
    del doc["link"]["prop_delay_ms"]
    expect_error(doc, "link.prop_delay_ms")


def test_flow_requires_controller():
    doc = base_doc()
    del doc["flows"][0]["controller"]
    expect_error(doc, "flows[0].controller")


def test_unknown_controller_kind():
    doc = base_doc()
    doc["flows"][0]["controller"] = "reno"
    expect_error(doc, "flows[0].controller")


def test_empty_flow_list():
    doc = base_doc()
    doc["flows"] = []
    expect_error(doc, "flows")


def test_random_loss_out_of_range():
    doc = base_doc()
    doc["link"]["random_loss"] = 1.5
    expect_error(doc, "link.random_loss")


def test_negative_duration():
    doc = base_doc()
    doc["duration_ms"] = -5
    expect_error(doc, "duration_ms")


def test_integer_beyond_float_range_is_an_error():
    doc = base_doc()
    doc["duration_ms"] = 10**400
    expect_error(doc, "duration_ms")


def test_boolean_is_not_a_number():
    doc = base_doc()
    doc["duration_ms"] = True
    expect_error(doc, "duration_ms")


def test_negative_flow_start():
    doc = base_doc()
    doc["flows"][0]["start_ms"] = -1
    expect_error(doc, "flows[0].start_ms")


def test_params_must_be_object():
    doc = base_doc()
    doc["flows"][0]["params"] = [1, 2]
    expect_error(doc, "flows[0].params")


def test_schedule_shape_errors():
    doc = base_doc()
    del doc["link"]["bandwidth_mbps"]
    doc["link"]["bandwidth_schedule"] = [[0.0, 2.0, 3.0]]
    expect_error(doc, "link.bandwidth_schedule")


def test_schedule_times_strictly_increasing():
    doc = base_doc()
    del doc["link"]["bandwidth_mbps"]
    doc["link"]["bandwidth_schedule"] = [[0.0, 2.0], [0.0, 1.0]]
    expect_error(doc, "link.bandwidth_schedule")
    # A NaN time compares false both ways, so it must not let a later,
    # earlier time through either.
    doc["link"]["bandwidth_schedule"] = [[0, 1.0], [50, 2.0], [math.nan, 3.0], [10, 0.5]]
    expect_error(doc, "link.bandwidth_schedule")


def test_schedule_must_start_at_zero():
    doc = base_doc()
    del doc["link"]["bandwidth_mbps"]
    doc["link"]["bandwidth_schedule"] = [[100.0, 2.0]]
    expect_error(doc, "link.bandwidth_schedule")


def test_schedule_capacity_positive():
    doc = base_doc()
    del doc["link"]["bandwidth_mbps"]
    doc["link"]["bandwidth_schedule"] = [[0.0, -2.0]]
    expect_error(doc, "link.bandwidth_schedule")


def test_queue_capacity_at_least_one():
    doc = base_doc()
    doc["link"]["queue_capacity_pkts"] = 0
    expect_error(doc, "link.queue_capacity_pkts")


@pytest.mark.parametrize("key", ["queue_capacity_pkts", "packet_bytes", "seed"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10.7,
                                   pytest.param(10**400, id="1e400")])
def test_integer_fields_must_be_whole(key, value):
    doc = base_doc()
    doc["link"][key] = value
    expect_error(doc, f"link.{key}")


def test_integer_fields_accept_integral_floats():
    doc = base_doc()
    doc["link"]["queue_capacity_pkts"] = 104.0
    assert scenario_from_dict(doc).link.queue_capacity == 104


# --- capacity lookup --------------------------------------------------------------

def test_mean_capacity_weights_schedule_by_time():
    link = LinkConfig(bandwidth_schedule=((0.0, 2.0), (5000.0, 1.0)),
                      prop_delay=25.0, queue_capacity=104)
    assert link.mean_capacity(0.0, 5000.0) == 2.0
    assert link.mean_capacity(5000.0, 1e9) == 1.0
    assert link.mean_capacity(0.0, 10_000.0) == pytest.approx(1.5)
    assert link.mean_capacity(4000.0, 8000.0) == pytest.approx(1.25)
    # An empty window reads the capacity in force at its start.
    assert link.mean_capacity(0.0, 0.0) == 2.0
    assert link.mean_capacity(4999.9, 4999.9) == 2.0
    assert link.mean_capacity(5000.0, 5000.0) == 1.0
    assert link.mean_capacity(1e9, 1e9) == 1.0


def test_validate_does_not_mutate():
    doc = base_doc()
    snapshot = copy.deepcopy(doc)
    scenario_from_dict(doc)
    assert doc == snapshot
