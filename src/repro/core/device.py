"""The mobile-device facade.

:class:`MobileDevice` is the user-level API the rest of the library's
pieces compose into: declare interfaces and a
:class:`~repro.prefs.policy.DevicePolicy`, and the device wires up the
simulator, engine, scheduler and per-app flows — the software picture
of the paper's Figure 3 seen from the user's side of the screen.

It also keeps the policy *live*: editing an app's weight or interface
rule mid-run propagates to the scheduler immediately, which is how the
paper's "we might switch off cellular data when we are close to our
monthly data cap" behaviours are expressed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..errors import ConfigurationError, PreferenceError
from ..fairness.waterfill import Allocation, weighted_maxmin
from ..net.flow import Flow
from ..net.interface import Interface
from ..net.sources import BulkSource
from ..prefs.policy import DevicePolicy, InterfaceRule
from ..prefs.preferences import PreferenceSet
from ..schedulers.base import MultiInterfaceScheduler
from ..schedulers.midrr import MiDrrScheduler
from ..sim.simulator import Simulator
from .engine import SchedulingEngine


class MobileDevice:
    """A multi-interface device running miDRR under a user policy."""

    def __init__(
        self,
        sim: Simulator,
        interface_rates: Mapping[str, float],
        policy: DevicePolicy,
        scheduler: Optional[MultiInterfaceScheduler] = None,
    ) -> None:
        if not interface_rates:
            raise ConfigurationError("a device needs at least one interface")
        if set(policy.interfaces) - set(interface_rates):
            raise ConfigurationError(
                "policy references interfaces the device does not have"
            )
        self.sim = sim
        self._policy = policy
        self._prefs: PreferenceSet = policy.compile()
        self.scheduler = scheduler if scheduler is not None else MiDrrScheduler()
        self.engine = SchedulingEngine(sim, self.scheduler)
        self._interfaces: Dict[str, Interface] = {}
        for interface_id, rate in interface_rates.items():
            interface = Interface(sim, interface_id, rate)
            self._interfaces[interface_id] = interface
            self.engine.add_interface(interface)
        self._flows: Dict[str, Flow] = {}
        for app_id in self._prefs.flow_ids:
            willing = self._prefs.willing_interfaces(app_id)
            flow = Flow(
                app_id,
                weight=self._prefs.weight(app_id),
                allowed_interfaces=willing,
            )
            self._flows[app_id] = flow
            self.engine.add_flow(flow)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def prefs(self) -> PreferenceSet:
        """The compiled (Π, φ) the scheduler is following."""
        return self._prefs

    @property
    def stats(self):
        """Service measurements (a :class:`StatsCollector`)."""
        return self.engine.stats

    def app_flow(self, app_id: str) -> Flow:
        """The flow object for *app_id* (offer traffic into it)."""
        flow = self._flows.get(app_id)
        if flow is None:
            raise ConfigurationError(f"unknown app {app_id!r}")
        return flow

    def interfaces(self) -> List[Interface]:
        """The device's interfaces."""
        return list(self._interfaces.values())

    def interface(self, interface_id: str) -> Interface:
        """One interface by id."""
        try:
            return self._interfaces[interface_id]
        except KeyError:
            raise ConfigurationError(f"unknown interface {interface_id!r}") from None

    # ------------------------------------------------------------------
    # Workload helpers
    # ------------------------------------------------------------------
    def saturate(self, app_id: str, total_bytes: Optional[int] = None) -> BulkSource:
        """Attach an always-backlogged transfer to *app_id*."""
        flow = self.app_flow(app_id)
        source = BulkSource(self.sim, flow, total_bytes=total_bytes)
        return source

    def start(self) -> None:
        """Kick every interface (call once after wiring workloads)."""
        self.engine.start()

    # ------------------------------------------------------------------
    # Live policy edits
    # ------------------------------------------------------------------
    def set_weight(self, app_id: str, weight: float) -> None:
        """Change an app's rate preference mid-run."""
        if weight <= 0:
            raise PreferenceError(f"weight must be positive, got {weight}")
        self._prefs.set_weight(app_id, weight)
        self.app_flow(app_id).weight = float(weight)
        self.engine.notify_preferences_changed(app_id)

    def set_rule(self, app_id: str, rule: InterfaceRule) -> None:
        """Change an app's interface preference mid-run."""
        willing = rule.resolve(list(self._interfaces))
        flow = self.app_flow(app_id)
        if willing is None:
            self._prefs.set_interfaces(app_id, None)
            flow.restrict_to(set(self._interfaces))
        else:
            self._prefs.set_interfaces(app_id, willing)
            flow.restrict_to(set(willing))
        # Quarantines the flow if its new Π-set is all down, otherwise
        # wakes the interfaces that just became usable.
        self.engine.notify_preferences_changed(app_id)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def expected_allocation(self) -> Allocation:
        """The exact max-min allocation under the current policy,
        assuming every app is backlogged (capacity planning)."""
        flows = {
            app_id: (
                self._prefs.weight(app_id),
                self._prefs.willing_interfaces(app_id),
            )
            for app_id in self._prefs.flow_ids
        }
        capacities = {
            interface_id: interface.rate_bps
            for interface_id, interface in self._interfaces.items()
        }
        return weighted_maxmin(flows, capacities)
