"""Unit tests for the preference model (Π, φ)."""

import pytest

from repro.errors import PreferenceError
from repro.prefs.preferences import FlowPreference, PreferenceSet


def pi_rows(prefs):
    """Π as 0/1 rows (flows × interfaces), read through ``willing``."""
    return [
        [int(prefs.willing(i, j)) for j in prefs.interface_ids]
        for i in prefs.flow_ids
    ]


class TestFlowPreference:
    def test_defaults(self):
        pref = FlowPreference()
        assert pref.weight == 1.0
        assert pref.interfaces is None

    def test_invalid_weight(self):
        with pytest.raises(PreferenceError):
            FlowPreference(weight=0)

    def test_empty_interfaces(self):
        with pytest.raises(PreferenceError):
            FlowPreference(interfaces=frozenset())


class TestPreferenceSet:
    def _prefs(self):
        prefs = PreferenceSet(["if1", "if2"])
        prefs.add_flow("a", weight=1.0, interfaces=["if1", "if2"])
        prefs.add_flow("b", weight=2.0, interfaces=["if2"])
        prefs.add_flow("c")  # any interface
        return prefs

    def test_willing(self):
        prefs = self._prefs()
        assert prefs.willing("a", "if1")
        assert not prefs.willing("b", "if1")
        assert prefs.willing("c", "if1") and prefs.willing("c", "if2")

    def test_willing_unknown_interface_is_false(self):
        assert not self._prefs().willing("a", "nope")

    def test_willing_interfaces_order(self):
        prefs = self._prefs()
        assert prefs.willing_interfaces("a") == ["if1", "if2"]
        assert prefs.willing_interfaces("b") == ["if2"]
        assert prefs.willing_interfaces("c") == ["if1", "if2"]

    def test_willing_flows(self):
        prefs = self._prefs()
        assert prefs.willing_flows("if1") == ["a", "c"]
        assert prefs.willing_flows("if2") == ["a", "b", "c"]

    def test_weight(self):
        assert self._prefs().weight("b") == 2.0

    def test_unknown_flow_raises(self):
        with pytest.raises(PreferenceError):
            self._prefs().weight("nope")

    def test_duplicate_flow_rejected(self):
        prefs = self._prefs()
        with pytest.raises(PreferenceError):
            prefs.add_flow("a")

    def test_unknown_interface_in_flow_rejected(self):
        prefs = PreferenceSet(["if1"])
        with pytest.raises(PreferenceError):
            prefs.add_flow("x", interfaces=["if9"])

    def test_empty_interface_set_rejected(self):
        prefs = PreferenceSet(["if1"])
        with pytest.raises(PreferenceError):
            prefs.add_flow("x", interfaces=[])

    def test_no_interfaces_rejected(self):
        with pytest.raises(PreferenceError):
            PreferenceSet([])


class TestMatrixConversion:
    def test_pi_matrix(self):
        prefs = PreferenceSet(["if1", "if2"])
        prefs.add_flow("a", interfaces=["if1", "if2"])
        prefs.add_flow("b", interfaces=["if2"])
        assert pi_rows(prefs) == [[1, 1], [0, 1]]

    def test_weights_vector(self):
        prefs = PreferenceSet(["if1"])
        prefs.add_flow("a", weight=1.0)
        prefs.add_flow("b", weight=2.5)
        assert [prefs.weight(i) for i in prefs.flow_ids] == [1.0, 2.5]

    def test_from_matrix_roundtrip(self):
        pi = [[1, 1], [0, 1]]
        prefs = PreferenceSet.from_matrix(
            ["a", "b"], ["if1", "if2"], pi, weights=[1.0, 2.0]
        )
        assert prefs.flow_ids == ["a", "b"]
        assert prefs.weight("a") == 1.0
        assert prefs.weight("b") == 2.0
        assert pi_rows(prefs) == pi

    def test_from_matrix_shape_mismatch(self):
        with pytest.raises(PreferenceError):
            PreferenceSet.from_matrix(["a"], ["if1"], [[1], [1]])
        with pytest.raises(PreferenceError):
            PreferenceSet.from_matrix(["a"], ["if1"], [[1, 0]])


class TestLiveUpdates:
    def test_set_weight(self):
        prefs = PreferenceSet(["if1"])
        prefs.add_flow("a")
        prefs.set_weight("a", 5.0)
        assert prefs.weight("a") == 5.0

    def test_set_interfaces(self):
        prefs = PreferenceSet(["if1", "if2"])
        prefs.add_flow("a", interfaces=["if1"])
        prefs.set_interfaces("a", ["if2"])
        assert prefs.willing_interfaces("a") == ["if2"]

    def test_rejected_set_interfaces_leaves_flow_unchanged(self):
        prefs = PreferenceSet(["if1", "if2"])
        prefs.add_flow("a", interfaces=["if1"])
        before = prefs.to_dict()
        with pytest.raises(PreferenceError):
            prefs.set_interfaces("a", ["if9"])
        assert prefs.willing_interfaces("a") == ["if1"]
        assert prefs.to_dict() == before
        prefs.validate()

    def test_remove_flow(self):
        prefs = PreferenceSet(["if1"])
        prefs.add_flow("a")
        prefs.remove_flow("a")
        assert "a" not in prefs
        prefs.remove_flow("a")  # idempotent

    def test_add_interface(self):
        prefs = PreferenceSet(["if1"])
        prefs.add_flow("a")  # any
        prefs.add_interface("if2")
        assert prefs.willing("a", "if2")
        with pytest.raises(PreferenceError):
            prefs.add_interface("if2")

    def test_validate_catches_stranded_flow(self):
        prefs = PreferenceSet(["if1", "if2"])
        prefs.add_flow("a", interfaces=["if1"])
        prefs.validate()  # fine
        # Simulate a policy bug: restrict to an interface then remove it
        # from the registry path by constructing a fresh set.
        bad = PreferenceSet(["if1"])
        bad.add_flow("a", interfaces=["if1"])
        bad._interface_ids.remove("if1")  # force the inconsistent state
        with pytest.raises(PreferenceError):
            bad.validate()


class TestSerialization:
    def _prefs(self):
        prefs = PreferenceSet(["if1", "if2"])
        prefs.add_flow("a", weight=2.0, interfaces=["if1"])
        prefs.add_flow("b")  # any interface
        return prefs

    def test_roundtrip(self):
        import json

        original = self._prefs()
        restored = PreferenceSet.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored.flow_ids == original.flow_ids
        assert restored.interface_ids == original.interface_ids
        assert restored.weight("a") == 2.0
        assert restored.willing_interfaces("a") == ["if1"]
        assert restored.willing_interfaces("b") == ["if1", "if2"]

    def test_any_interface_stays_unrestricted(self):
        restored = PreferenceSet.from_dict(self._prefs().to_dict())
        restored.add_interface("if3")
        assert restored.willing("b", "if3")
        assert not restored.willing("a", "if3")

    def test_malformed_document(self):
        with pytest.raises(PreferenceError):
            PreferenceSet.from_dict({"interfaces": ["if1"]})

    def test_invalid_values_caught_by_validation(self):
        document = {
            "interfaces": ["if1"],
            "flows": [{"flow_id": "a", "weight": -1.0}],
        }
        with pytest.raises(PreferenceError):
            PreferenceSet.from_dict(document)
