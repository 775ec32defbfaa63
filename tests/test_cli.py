"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in ("fig1", "fig6", "fig7", "fig9", "fig10", "chaos", "all"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_fig6_zoom_flag(self):
        args = build_parser().parse_args(["fig6", "--zoom"])
        assert args.zoom is True

    def test_fig7_seed(self):
        args = build_parser().parse_args(["fig7", "--seed", "9"])
        assert args.seed == 9


class TestSolveCommand:
    def test_solve_prints_allocation(self, capsys):
        exit_code = main(
            [
                "solve",
                "--interface", "if1=3e6",
                "--interface", "if2=10e6",
                "--flow", "a:1:if1",
                "--flow", "b:2:*",
                "--flow", "c:1:if2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "3.00 Mb/s" in out
        assert "6.67 Mb/s" in out
        assert "3.33 Mb/s" in out

    def test_solve_rejects_malformed_interface(self):
        with pytest.raises(SystemExit):
            main(["solve", "--interface", "if1", "--flow", "a:1:*"])

    def test_solve_rejects_malformed_flow(self):
        with pytest.raises(SystemExit):
            main(["solve", "--interface", "if1=1e6", "--flow", "a"])

    def test_solve_reports_library_errors(self, capsys):
        exit_code = main(
            ["solve", "--interface", "if1=1e6", "--flow", "a:1:zzz"]
        )
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "interface, flow",
        [
            ("if1=nan", "a:1:*"),
            ("if1=inf", "a:1:*"),
            ("if1=1e6", "a:nan:*"),
            ("if1=1e6", "a:inf:*"),
        ],
    )
    def test_solve_reports_nonfinite_inputs(self, capsys, interface, flow):
        exit_code = main(["solve", "--interface", interface, "--flow", flow])
        assert exit_code == 1
        assert "finite" in capsys.readouterr().err

    def test_solve_rejects_non_numeric_rate(self):
        with pytest.raises(SystemExit, match="name=rate"):
            main(["solve", "--interface", "if1=abc", "--flow", "a:1:*"])

    def test_solve_rejects_non_numeric_weight(self):
        with pytest.raises(SystemExit, match="id:weight:ifaces"):
            main(["solve", "--interface", "if1=1e6", "--flow", "a:abc:*"])


class TestFigureCommands:
    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "fig1c" in out
        assert "miDRR" in out

    def test_fig7_runs(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "P[N ≥ 7 | active]" in out
        assert "35" in out

    def test_fig9_runs(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "interfaces" in out
        assert "16" in out


class TestIdealCommand:
    def test_ideal_runs(self, capsys):
        assert main(["ideal"]) == 0
        out = capsys.readouterr().out
        assert "ideal proxy" in out
        assert "worst deviation" in out


class TestRunCommand:
    def _write_scenario(self, tmp_path):
        import json

        from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario
        from repro.units import mbps

        scenario = Scenario(
            name="clirun",
            interfaces=(
                InterfaceSpec("if1", mbps(1)),
                InterfaceSpec("if2", mbps(1)),
            ),
            flows=(FlowSpec("a"), FlowSpec("b", interfaces=("if2",))),
            duration=15.0,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict()))
        return path

    def test_run_with_midrr(self, capsys, tmp_path):
        path = self._write_scenario(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clirun" in out
        assert "0.0%" in out  # miDRR matches the reference

    def test_run_with_baseline(self, capsys, tmp_path):
        path = self._write_scenario(tmp_path)
        assert main(["run", str(path), "--scheduler", "wfq"]) == 0
        out = capsys.readouterr().out
        assert "50.0%" in out  # the classical failure shows up

    def test_unknown_scheduler_rejected(self, tmp_path):
        path = self._write_scenario(tmp_path)
        with pytest.raises(SystemExit):
            main(["run", str(path), "--scheduler", "nope"])


class TestChaosCommand:
    def test_chaos_flags_parse(self):
        args = build_parser().parse_args(
            ["chaos", "--seed", "9", "--duration", "25", "--no-churn"]
        )
        assert args.seed == 9
        assert args.duration == 25.0
        assert args.no_churn is True

    def test_chaos_runs_and_reports(self, capsys):
        assert main(["chaos", "--seed", "1", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "chaos run: seed=1" in out
        assert "fault signature:" in out
        assert "stats signature:" in out


class TestAuditCommand:
    #: sha256 of ``audit --seed 7 --duration 20`` output, every line but
    #: the ``solver:`` one, joined with newlines.
    OUTPUT_DIGEST = (
        "541edaa5c933e398ffa85706137b15d2d4e990ec19c7479accdc6a8bd9d48196"
    )

    def test_audit_report_is_pinned(self, capsys):
        assert main(["audit", "--seed", "7", "--duration", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        solver_lines = [line for line in lines if line.startswith("solver:")]
        assert solver_lines == ["solver: 16 deltas, 2 solves, 2 clusters now"]
        rest = "\n".join(line for line in lines if not line.startswith("solver:"))
        assert hashlib.sha256(rest.encode("utf-8")).hexdigest() == (
            self.OUTPUT_DIGEST
        )


class TestObsCommand:
    def test_obs_flags_parse(self):
        args = build_parser().parse_args(
            ["obs", "--flows", "7", "--interfaces", "3", "--out", "x.jsonl"]
        )
        assert args.flows == 7
        assert args.interfaces == 3
        assert args.out == "x.jsonl"
        assert args.selftest is False

    def test_obs_selftest_passes(self, capsys):
        assert main(["obs", "--selftest"]) == 0
        assert "obs selftest: ok" in capsys.readouterr().out

    def test_obs_run_writes_snapshots(self, capsys, tmp_path):
        out = tmp_path / "obs.jsonl"
        exit_code = main(
            [
                "obs",
                "--flows", "10",
                "--interfaces", "2",
                "--target-packets", "200",
                "--out", str(out),
            ]
        )
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert "engine.packets_sent_total" in stdout
        assert "health.ticks" in stdout

        from repro.obs import SNAPSHOT_SCHEMA_VERSION, read_jsonl

        records = read_jsonl(str(out))
        assert records
        assert all(
            record["schema_version"] == SNAPSHOT_SCHEMA_VERSION
            for record in records
        )

    def test_obs_run_from_scenario_file(self, capsys, tmp_path):
        import json

        from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario
        from repro.units import mbps

        scenario = Scenario(
            name="obsfile",
            interfaces=(InterfaceSpec("if1", mbps(5)),),
            flows=(FlowSpec("a"),),
            duration=2.0,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict()))
        assert main(["obs", "--scenario", str(path)]) == 0
        assert "obsfile" in capsys.readouterr().out


class TestFctCommand:
    def test_fct_runs(self, capsys):
        assert main(["fct", "--light"]) == 0
        out = capsys.readouterr().out
        assert "flow completion times" in out
        assert "median FCT" in out
