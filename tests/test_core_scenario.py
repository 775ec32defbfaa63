"""Unit tests for declarative scenarios."""

import pytest

from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.errors import ConfigurationError
from repro.net.interface import CapacityStep


def simple_scenario(**overrides):
    fields = dict(
        interfaces=(InterfaceSpec("if1", 1e6), InterfaceSpec("if2", 2e6)),
        flows=(FlowSpec("a"), FlowSpec("b", interfaces=("if2",))),
        duration=10.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestTrafficSpec:
    def test_default_is_bulk(self):
        assert TrafficSpec().kind == "bulk"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(kind="warp")

    @pytest.mark.parametrize("kind", ["cbr", "poisson", "onoff"])
    def test_rate_required_for_rated_kinds(self, kind):
        with pytest.raises(ConfigurationError):
            TrafficSpec(kind=kind)

    def test_invalid_packet_size(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(packet_size=0)

    def test_packet_size_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="integer"):
            TrafficSpec(packet_size=1500.0)


class TestFlowSpec:
    def test_invalid_weight(self):
        with pytest.raises(ConfigurationError):
            FlowSpec("a", weight=0)

    def test_empty_id(self):
        with pytest.raises(ConfigurationError):
            FlowSpec("")

    def test_negative_start(self):
        with pytest.raises(ConfigurationError):
            FlowSpec("a", start_time=-1.0)


class TestInterfaceSpec:
    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            InterfaceSpec("if1", 0)

    def test_capacity_steps_carried(self):
        spec = InterfaceSpec("if1", 1e6, capacity_steps=(CapacityStep(5.0, 2e6),))
        assert spec.capacity_steps[0].rate_bps == 2e6


class TestScenario:
    def test_valid_scenario(self):
        scenario = simple_scenario()
        assert scenario.interface_ids() == ["if1", "if2"]
        assert scenario.capacities() == {"if1": 1e6, "if2": 2e6}
        assert scenario.weights() == {"a": 1.0, "b": 1.0}

    def test_duplicate_interfaces_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_scenario(
                interfaces=(InterfaceSpec("if1", 1e6), InterfaceSpec("if1", 2e6))
            )

    def test_duplicate_flows_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_scenario(flows=(FlowSpec("a"), FlowSpec("a")))

    def test_unknown_interface_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_scenario(flows=(FlowSpec("a", interfaces=("nope",)),))

    def test_no_interfaces_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_scenario(interfaces=())

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_scenario(duration=0.0)

    def test_preference_set_compilation(self):
        prefs = simple_scenario().preference_set()
        assert prefs.willing("a", "if1")
        assert not prefs.willing("b", "if1")
        assert prefs.willing("b", "if2")
