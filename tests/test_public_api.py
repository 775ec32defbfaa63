"""The public API surface: everything in ``__all__`` exists and the
documented quickstart works as written."""

import importlib

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"
            assert name in dir(repro), f"dir(repro) lacks {name}"

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.sim",
            "repro.net",
            "repro.prefs",
            "repro.schedulers",
            "repro.fairness",
            "repro.core",
            "repro.bridge",
            "repro.httpproxy",
            "repro.faults",
            "repro.health",
            "repro.obs",
            "repro.perf",
            "repro.fleet",
            "repro.trace",
            "repro.analysis",
            "repro.experiments",
            "repro.recovery",
            "repro.apps",
            "repro.cli",
            "repro.units",
            "repro.errors",
        ],
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"
            assert name in dir(mod), f"dir({module}) lacks {name}"

    def test_star_import(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["Simulator"] is repro.sim.simulator.Simulator

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        with pytest.raises(AttributeError):
            repro.fleet.no_such_name
        with pytest.raises(ImportError):
            from repro import no_such_name  # noqa: F401

    def test_error_hierarchy(self):
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.PreferenceError, repro.ConfigurationError)
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.FaultError, repro.ReproError)
        assert issubclass(repro.WatchdogError, repro.ReproError)


class TestDocumentedQuickstart:
    def test_readme_quickstart(self):
        """The snippet in the package docstring, executed verbatim."""
        from repro import FlowSpec, InterfaceSpec, Scenario
        from repro import MiDrrScheduler, run_scenario
        from repro.units import mbps

        scenario = Scenario(
            interfaces=(
                InterfaceSpec("if1", mbps(1)),
                InterfaceSpec("if2", mbps(1)),
            ),
            flows=(
                FlowSpec("a"),
                FlowSpec("b", interfaces=("if2",)),
            ),
            duration=30.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        rates = result.rates(5, 30)
        assert rates["a"] == pytest.approx(mbps(1), rel=0.03)
        assert rates["b"] == pytest.approx(mbps(1), rel=0.03)
