"""Fleet runner tests: sharding, determinism, merge exactness.

The contract under test (docs/architecture.md "Fleet-scale runs"):

* the shard plan is a function of the device count alone — never the
  worker count — so merge grouping, and therefore every float sum in
  the merged telemetry, is identical whatever the pool looks like;
* any device replays standalone byte-identically from
  ``(fleet_seed, device_id)``;
* the merged fleet percentiles equal a single registry fed every
  device's telemetry (sketch merge is exact);
* the report hash pins all of the above: equal across repeat runs,
  executors and worker counts.
"""

import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet import (
    DEFAULT_MAX_SHARDS,
    DELAY_SKETCH,
    EXECUTORS,
    PAYLOAD_SCHEMA_VERSION,
    compute_report_hash,
    decode_shard,
    default_shard_count,
    device_ids,
    device_seed,
    encode_shard,
    plan_shards,
    read_shard_jsonl,
    run_device,
    run_fleet,
    run_shard,
    trace_fingerprint,
    validate_shard,
    write_shard_jsonl,
)
from repro.fleet import device as fleet_device
from repro.net.sink import DRAIN_CHUNK, SAMPLE_WIDTH, ServiceSample, StatsCollector
from repro.obs import (
    SNAPSHOT_SCHEMA_VERSION,
    MetricsRegistry,
    SnapshotProcess,
    read_jsonl,
    write_jsonl,
)
from repro.sim.randomness import derive_seed
from repro.sim.simulator import Simulator
from repro.trace import DeviceWorkload

#: Small identical-work-per-device workload: fast and fully active.
BULK = DeviceWorkload(kind="bulk", duration=0.25, num_flows=4, num_interfaces=2)
#: Short smartphone workload: exercises the trace-driven path.
PHONE = DeviceWorkload(kind="smartphone", duration=5.0, num_interfaces=2)
#: The default smartphone device over a 10 s window (payload digests).
PHONE_10S = DeviceWorkload(kind="smartphone", duration=10.0)


class TestShardPlan:
    def test_device_ids_canonical(self):
        assert device_ids(3) == ["d0", "d1", "d2"]
        with pytest.raises(ConfigurationError):
            device_ids(0)

    def test_device_seed_is_published_derivation(self):
        """The replay contract: seed = derive_seed(fleet_seed, 'device:<id>')."""
        assert device_seed(7, "d3") == derive_seed(7, "device:d3")
        assert device_seed(7, "d3") != device_seed(7, "d4")
        assert device_seed(7, "d3") != device_seed(8, "d3")

    def test_default_shard_count_ignores_workers(self):
        """Workers never enter the shard count: merge grouping — and the
        float sums inside it — must not depend on the pool size."""
        assert default_shard_count(5) == 5
        assert default_shard_count(1000) == DEFAULT_MAX_SHARDS

    def test_plan_balanced_contiguous(self):
        plan = plan_shards(10, 3)
        sizes = [len(shard.device_ids) for shard in plan.shards]
        assert sizes == [4, 3, 3]
        assert plan.device_order() == device_ids(10)
        assert [shard.shard_id for shard in plan.shards] == [0, 1, 2]

    def test_plan_clamps_to_devices(self):
        assert len(plan_shards(3, 8).shards) == 3

    def test_plan_auto(self):
        assert len(plan_shards(5).shards) == 5
        assert len(plan_shards(100).shards) == DEFAULT_MAX_SHARDS

    def test_workload_packet_size_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="integer"):
            DeviceWorkload(kind="bulk", packet_size=1500.0)

    def test_plan_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            plan_shards(0)
        with pytest.raises(ConfigurationError):
            plan_shards(4, -1)


class TestRunDevice:
    def test_byte_identical_replay(self):
        first = run_device("d0", 1234, BULK)
        second = run_device("d0", 1234, BULK)
        assert first == second
        assert first["packets"] > 0

    def test_seed_changes_trace(self):
        a = run_device("d0", 1, PHONE)
        b = run_device("d0", 2, PHONE)
        assert a["trace_sha256"] != b["trace_sha256"]

    @pytest.mark.parametrize(
        "device_id, expected",
        [
            ("d0", "bb753c57c1db5bcf8400b14f494e594258efa8b4df2176da8bff198d1322c3c3"),
            ("d3", "9aaa197438b1face01af8a9bedb7d63a31c358e73113835016414c106b8e007d"),
            ("d5", "eb04b8b8e403b68adcc2a5b34328365987be066b4defb52859c10429e76c10f7"),
        ],
    )
    def test_payload_digest(self, device_id, expected):
        """The whole payload (summary, fingerprint and registry state)
        of three fixed smartphone devices is pinned, so a rewrite of
        the post-simulation digest cannot move a single bit of it."""
        payload = run_device(device_id, 7, PHONE_10S)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == expected


class TestDeviceTeardown:
    def test_finished_device_freed_without_the_cycle_collector(self, monkeypatch):
        """A finished device's whole object graph is freed by reference
        counting: with the cycle collector off, no device's
        ``StatsCollector`` outlives ``run_device`` and a collection
        afterwards finds nothing unreachable."""
        import gc
        import weakref

        collectors = []
        real_init = StatsCollector.__init__

        def init(collector, *args, **kwargs):
            real_init(collector, *args, **kwargs)
            collectors.append(weakref.ref(collector))

        monkeypatch.setattr(StatsCollector, "__init__", init)
        gc.collect()
        gc.disable()
        try:
            for device_id in ("d0", "d1", "d2"):
                run_device(device_id, 1, PHONE)
            alive = [ref for ref in collectors if ref() is not None]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert len(collectors) == 3
        assert alive == []
        assert unreachable == 0


def reference_fingerprint(samples) -> str:
    """The fingerprint's defining formulation: a list of
    ``[time, flow_id, interface_id, size_bytes, delay]`` lists,
    canonical JSON with sorted keys and compact separators."""
    canonical = json.dumps(
        [
            [s.time, s.flow_id, s.interface_id, s.size_bytes, s.delay]
            for s in samples
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_IDS = st.one_of(
    st.sampled_from(["f0", "wlan0", "vidéo", "流量", "a\"b", "tab\tx", ""]),
    st.text(max_size=6),
)
_SAMPLE = st.builds(
    ServiceSample,
    time=st.one_of(st.sampled_from([0.0, 0.5, 0.5, 1e-9, 86400.0]), st.floats()),
    flow_id=_IDS,
    interface_id=_IDS,
    size_bytes=st.one_of(
        st.sampled_from([0, 1, 1500, 2**31, 2**63 - 1]), st.integers(0, 2**80)
    ),
    delay=st.one_of(st.none(), st.floats(allow_nan=False)),
)


class TestTraceFingerprint:
    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(_SAMPLE, max_size=30))
    def test_matches_reference_formulation(self, samples):
        assert trace_fingerprint(samples) == reference_fingerprint(samples)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(_SAMPLE, max_size=30))
    def test_small_chunks_join_exactly(self, samples):
        # Many chunks per trace: the joins between chunks must read as
        # one JSON array.
        with mock.patch.object(fleet_device, "FINGERPRINT_CHUNK", 3):
            assert trace_fingerprint(samples) == reference_fingerprint(samples)

    @pytest.mark.parametrize(
        "rows",
        [
            0,
            1,
            fleet_device.FINGERPRINT_CHUNK - 1,
            fleet_device.FINGERPRINT_CHUNK,
            fleet_device.FINGERPRINT_CHUNK + 1,
            2 * fleet_device.FINGERPRINT_CHUNK + 5,
        ],
    )
    def test_collector_log_across_chunk_boundaries(self, rows):
        # A collector's log, drained as the engine drains it, with
        # missing delays mixed in, hashes as the list of its samples,
        # whether read as samples or as column rows.
        stats = StatsCollector(Simulator())
        for row in range(rows):
            stats.pending.extend(
                (
                    row * 1e-4,
                    f"f{row % 7}",
                    f"if{row % 3}",
                    40 + row % 1461,
                    None if row % 5 == 0 else row * 1e-6,
                )
            )
            if len(stats.pending) >= DRAIN_CHUNK * SAMPLE_WIDTH:
                stats.drain()
        assert len(stats.samples) == rows
        expected = reference_fingerprint(list(stats.samples))
        assert trace_fingerprint(stats.samples) == expected
        # The device digest reads the rows off the columns.
        assert trace_fingerprint(zip(*stats.samples.columns())) == expected


def shard_payload(device_count=2, shard_id=0):
    plan = plan_shards(device_count, 1)
    return run_shard(
        {
            "shard_id": shard_id,
            "device_ids": list(plan.shards[0].device_ids),
            "fleet_seed": 0,
            "workload": BULK.to_dict(),
        }
    )


class TestShardCodec:
    def test_roundtrip(self):
        payload = shard_payload()
        assert payload["schema_version"] == PAYLOAD_SCHEMA_VERSION
        assert decode_shard(encode_shard(payload)) == validate_shard(payload)

    def test_jsonl_roundtrip(self, tmp_path):
        payloads = [shard_payload(1, 0), shard_payload(2, 1)]
        path = str(tmp_path / "shards.jsonl")
        assert write_shard_jsonl(path, payloads) == 2
        assert read_shard_jsonl(path) == payloads

    def test_missing_keys_rejected(self):
        payload = shard_payload()
        payload.pop("registry")
        with pytest.raises(ConfigurationError, match="missing keys"):
            validate_shard(payload)

    def test_newer_schema_rejected(self):
        payload = shard_payload()
        payload["schema_version"] = PAYLOAD_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="newer"):
            validate_shard(payload)

    def test_device_summary_shape_checked(self):
        payload = shard_payload()
        del payload["devices"][0]["trace_sha256"]
        with pytest.raises(ConfigurationError, match="missing keys"):
            validate_shard(payload)

    def test_bad_json_line_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid shard payload"):
            decode_shard("{not json")


@pytest.mark.fleet
class TestFleetSmoke:
    """Tier-1 fleet smoke: small fleets, the full determinism contract."""

    def test_serial_report_deterministic(self):
        first = run_fleet(6, BULK, fleet_seed=3, executor="serial")
        second = run_fleet(6, BULK, fleet_seed=3, executor="serial")
        assert first["report_hash"] == second["report_hash"]
        assert first["report_hash"] == compute_report_hash(first)
        assert first["totals"]["packets"] > 0
        assert first["totals"]["devices"] == 6
        # Wall clock varies between runs but must not enter the hash.
        assert first["run"]["wall_seconds"] != 0.0

    def test_process_executor_matches_serial(self):
        serial = run_fleet(4, BULK, fleet_seed=1, executor="serial")
        pooled = run_fleet(4, BULK, fleet_seed=1, workers=2, executor="process")
        assert pooled["report_hash"] == serial["report_hash"]
        assert pooled["run"]["executor"] == "process"
        assert pooled["run"]["workers"] == 2

    def test_worker_count_does_not_change_report(self):
        one = run_fleet(4, BULK, fleet_seed=2, workers=1, executor="process")
        two = run_fleet(4, BULK, fleet_seed=2, workers=2, executor="process")
        assert one["report_hash"] == two["report_hash"]

    def test_standalone_device_replay(self, tmp_path):
        """Any device re-runs standalone byte-identically from
        ``(fleet_seed, device_id)`` — the debugging workflow the seed
        derivation exists for."""
        log = str(tmp_path / "shards.jsonl")
        run_fleet(3, PHONE, fleet_seed=9, executor="serial", shard_log_path=log)
        summaries = [
            summary
            for payload in read_shard_jsonl(log)
            for summary in payload["devices"]
        ]
        assert [s["device_id"] for s in summaries] == device_ids(3)
        for summary in summaries:
            standalone = run_device(
                summary["device_id"],
                device_seed(9, summary["device_id"]),
                PHONE,
            )
            standalone.pop("registry")
            assert standalone == summary

    def test_merged_percentiles_match_single_registry(self):
        """Fleet delay p50/p95/p99 == a single registry fed every
        device's telemetry: sketch merge is exact, not approximate."""
        report = run_fleet(5, BULK, fleet_seed=4, executor="serial")
        reference = MetricsRegistry()
        for did in device_ids(5):
            payload = run_device(did, device_seed(4, did), BULK)
            reference.merge_state(payload["registry"])
        sketch = reference.get(DELAY_SKETCH)
        assert report["delay"]["count"] == sketch.count
        assert report["delay"]["p50"] == sketch.quantile(0.5)
        assert report["delay"]["p95"] == sketch.quantile(0.95)
        assert report["delay"]["p99"] == sketch.quantile(0.99)
        assert report["registry"] == reference.snapshot_state()

    def test_report_file_written(self, tmp_path):
        path = str(tmp_path / "fleet.json")
        report = run_fleet(
            2, BULK, fleet_seed=0, executor="serial", report_path=path
        )
        with open(path, "r", encoding="utf-8") as handle:
            on_disk = json.load(handle)
        assert on_disk == report
        assert on_disk["report_hash"] == compute_report_hash(on_disk)

    def test_fairness_and_interfaces_reported(self):
        report = run_fleet(3, BULK, fleet_seed=0, executor="serial")
        assert 0.0 < report["fairness"]["jain_index"] <= 1.0
        assert set(report["interfaces"]) == {"if0", "if1"}
        for row in report["interfaces"].values():
            assert row["bytes"] > 0
            assert 0.0 < row["utilization"] <= 1.0

    def test_bad_arguments_rejected(self):
        assert EXECUTORS == ("serial", "process")
        with pytest.raises(ConfigurationError, match="executor"):
            run_fleet(2, BULK, executor="threads")
        with pytest.raises(ConfigurationError, match="workers"):
            run_fleet(2, BULK, workers=0)


class TestFleetCli:
    def test_parses_documented_quickstart(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fleet", "--devices", "1000", "--workers", "4"]
        )
        assert callable(args.func)
        assert args.devices == 1000 and args.workers == 4

    def test_runs_and_reports(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "fleet.json"
        exit_code = main(
            [
                "fleet",
                "--devices", "2",
                "--executor", "serial",
                "--workload", "bulk",
                "--duration", "0.25",
                "--flows", "4",
                "--report", str(report_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "report hash" in out
        assert report_path.exists()


class TestSnapshotShardLabels:
    def make_process(self, **kwargs):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        return SnapshotProcess(sim, registry, period=1.0, **kwargs)

    def test_labels_emitted(self):
        record = self.make_process(shard_id=3, device_id="d7").sample_now()
        assert record["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert record["shard_id"] == 3
        assert record["device_id"] == "d7"

    def test_labels_absent_when_unlabelled(self):
        record = self.make_process().sample_now()
        assert "shard_id" not in record
        assert "device_id" not in record

    def test_v1_records_still_read(self, tmp_path):
        """A pre-fleet stream (no schema_version, no labels) reads fine."""
        path = str(tmp_path / "snaps.jsonl")
        legacy = {"t": 0.0, "seq": 0, "metrics": {"c": {"type": "counter", "value": 1}}}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(legacy) + "\n")
        records = read_jsonl(path)
        assert records == [legacy]
        assert "shard_id" not in records[0]

    def test_newer_schema_rejected(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        record = {
            "t": 0.0,
            "seq": 0,
            "schema_version": SNAPSHOT_SCHEMA_VERSION + 1,
            "metrics": {},
        }
        write_jsonl(path, [record])
        with pytest.raises(ConfigurationError, match="newer"):
            read_jsonl(path)

    def test_labelled_roundtrip(self, tmp_path):
        process = self.make_process(shard_id=0, device_id="d0")
        process.sample_now()
        path = str(tmp_path / "snaps.jsonl")
        assert process.write_jsonl(path) == 1
        assert read_jsonl(path)[0]["device_id"] == "d0"
