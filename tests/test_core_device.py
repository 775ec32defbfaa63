"""Tests for the MobileDevice facade."""

import pytest

from repro.core.device import MobileDevice
from repro.errors import ConfigurationError, PreferenceError
from repro.prefs.policy import AnyInterface, DevicePolicy, Only
from repro.units import mbps


def make_device(sim):
    policy = DevicePolicy(interfaces=["wifi", "lte"])
    policy.app("video", Only("wifi"), weight=2.0)
    policy.app("sync", AnyInterface(), weight=1.0)
    return MobileDevice(
        sim, {"wifi": mbps(8), "lte": mbps(4)}, policy
    )


class TestConstruction:
    def test_wires_interfaces_and_flows(self, sim):
        device = make_device(sim)
        assert {i.interface_id for i in device.interfaces()} == {"wifi", "lte"}
        assert device.app_flow("video").weight == 2.0
        assert device.app_flow("video").willing_to_use("wifi")
        assert not device.app_flow("video").willing_to_use("lte")

    def test_unknown_app_rejected(self, sim):
        device = make_device(sim)
        with pytest.raises(ConfigurationError):
            device.app_flow("ghost")

    def test_policy_interface_mismatch_rejected(self, sim):
        policy = DevicePolicy(interfaces=["wifi", "satellite"])
        policy.app("x", AnyInterface())
        with pytest.raises(ConfigurationError):
            MobileDevice(sim, {"wifi": mbps(1)}, policy)

    def test_no_interfaces_rejected(self, sim):
        policy = DevicePolicy(interfaces=["wifi"])
        policy.app("x", AnyInterface())
        with pytest.raises(ConfigurationError):
            MobileDevice(sim, {}, policy)


class TestAllocation:
    def test_expected_allocation(self, sim):
        device = make_device(sim)
        allocation = device.expected_allocation()
        # video wifi-only (w2), sync anywhere: J={wifi}: 8/2=4;
        # J=all: 12/3=4 → both clusters at level 4.
        assert allocation.rate("video") == pytest.approx(mbps(8))
        assert allocation.rate("sync") == pytest.approx(mbps(4))

    def test_measured_matches_expected(self, sim):
        device = make_device(sim)
        device.saturate("video")
        device.saturate("sync")
        device.start()
        sim.run(until=20.0)
        expected = device.expected_allocation()
        for app_id in ("video", "sync"):
            measured = device.stats.rate_in_window(app_id, 3, 20)
            assert measured == pytest.approx(expected.rate(app_id), rel=0.05)


class TestLiveEdits:
    def test_set_weight_changes_split(self, sim):
        device = make_device(sim)
        device.saturate("video")
        device.saturate("sync")
        device.start()
        sim.schedule(10.0, device.set_weight, "sync", 6.0)
        sim.run(until=25.0)
        early_sync = device.stats.rate_in_window("sync", 3, 10)
        late_sync = device.stats.rate_in_window("sync", 12, 25)
        assert late_sync > early_sync * 1.2
        assert device.prefs.weight("sync") == 6.0

    def test_set_rule_restricts_interfaces(self, sim):
        device = make_device(sim)
        device.saturate("sync")
        device.start()
        sim.schedule(10.0, device.set_rule, "sync", Only("lte"))
        sim.run(until=20.0)
        late_wifi = device.stats.service_in_window(
            "sync", 11.0, 20.0, interface_id="wifi"
        )
        assert late_wifi <= 1500  # one in-flight packet at most
        assert device.stats.rate_in_window("sync", 12, 20) == pytest.approx(
            mbps(4), rel=0.05
        )

    def test_set_rule_back_to_any(self, sim):
        device = make_device(sim)
        device.saturate("sync")
        device.start()
        sim.schedule(5.0, device.set_rule, "sync", Only("lte"))
        sim.schedule(10.0, device.set_rule, "sync", AnyInterface())
        sim.run(until=20.0)
        # After widening, both interfaces serve again: full 12 Mb/s.
        assert device.stats.rate_in_window("sync", 12, 20) == pytest.approx(
            mbps(12), rel=0.05
        )

    def test_invalid_weight_rejected(self, sim):
        device = make_device(sim)
        with pytest.raises(PreferenceError):
            device.set_weight("sync", 0.0)

    def test_rule_onto_downed_interfaces_quarantines(self, sim):
        device = make_device(sim)
        device.saturate("sync")
        device.start()
        sim.run(until=1.0)
        device.interface("lte").bring_down()
        device.set_rule("sync", Only("lte"))
        assert "sync" in device.engine.quarantined_flows
        device.interface("lte").bring_up()
        assert "sync" not in device.engine.quarantined_flows

    def test_edits_reach_preference_listeners(self, sim):
        device = make_device(sim)
        start = len(device.engine.regimes)
        device.set_weight("video", 3.0)
        device.set_rule("sync", Only("wifi"))
        heard = [entry[1:] for entry in device.engine.regimes[start:]]
        assert heard == [
            ("flow", "video", (3.0, ["wifi"], False)),
            ("flow", "sync", (1.0, ["wifi"], False)),
        ]
