"""The latency-SLO report: statistics helpers and determinism contract."""

import math

import pytest

from repro.analysis.slo import (
    DEFAULT_DEADLINE_BUDGETS,
    SCHEDULER_FAMILY,
    SloReport,
    SloRow,
    jain_index,
    p99,
    run_latency_slo,
)
from repro.errors import ConfigurationError


class TestStatistics:
    def test_p99_empty_sample(self):
        assert p99([]) == 0.0

    def test_p99_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert p99(values) == 99
        assert p99([7.0]) == 7.0
        assert p99([3.0, 1.0, 2.0]) == 3.0

    def test_jain_uniform_is_one(self):
        assert jain_index({"a": 5.0, "b": 5.0, "c": 5.0}) == pytest.approx(1.0)

    def test_jain_skew_is_less_than_one(self):
        skewed = jain_index({"a": 10.0, "b": 1.0})
        assert 0.5 < skewed < 1.0

    def test_jain_degenerate_cases(self):
        assert jain_index({}) == 1.0
        assert jain_index({"a": 0.0, "b": 0.0}) == 1.0

    def test_jain_clamps_nonfinite_rates(self):
        # Regression: a NaN (0/0 normalization) or inf (zero weight)
        # used to flow straight into the squares; now it scores as a
        # zero share and the index stays finite.
        value = jain_index({"a": float("nan"), "b": 5.0, "c": float("inf")})
        assert math.isfinite(value)
        assert value == pytest.approx(jain_index({"a": 0.0, "b": 5.0, "c": 0.0}))
        assert jain_index({"a": float("nan")}) == 1.0

    def test_nonfinite_rates_cannot_poison_the_report_hash(self):
        # The hash covers jain_fairness!r; a NaN there would make the
        # report hash unstable (nan != nan) and unreproducible.
        poisoned = jain_index({"a": float("nan"), "b": 1.0, "c": 2.0})
        clean = jain_index({"a": 0.0, "b": 1.0, "c": 2.0})
        row = dict(
            scheduler="midrr",
            deadline_packets=10,
            deadline_misses=0,
            p99_miss_lateness=0.0,
            bytes_total=1000,
            admission_rejected=0,
            admission_shed=0,
            alerts=0,
            invariant_violations=0,
        )
        report_a = SloReport(seed=1, duration=20.0, budgets={"f": 0.1})
        report_a.rows.append(SloRow(jain_fairness=poisoned, **row))
        report_b = SloReport(seed=1, duration=20.0, budgets={"f": 0.1})
        report_b.rows.append(SloRow(jain_fairness=clean, **row))
        assert "nan" not in report_a.rows[0].signature_line()
        assert report_a.report_hash() == report_b.report_hash()


class TestReportShape:
    def make_row(self, **overrides):
        base = dict(
            scheduler="midrr",
            deadline_packets=100,
            deadline_misses=3,
            p99_miss_lateness=0.25,
            jain_fairness=0.97,
            bytes_total=1_000_000,
            admission_rejected=0,
            admission_shed=0,
            alerts=0,
            invariant_violations=0,
        )
        base.update(overrides)
        return SloRow(**base)

    def test_miss_rate(self):
        assert self.make_row().miss_rate == pytest.approx(0.03)
        assert self.make_row(deadline_packets=0, deadline_misses=0).miss_rate == 0.0

    def test_hash_excludes_wall_clock_fields(self):
        # alerts counts depend on watchdog wall-phase and are shown but
        # never hashed; two reports differing only there hash equal.
        report_a = SloReport(seed=1, duration=20.0, budgets={"f": 0.1})
        report_a.rows.append(self.make_row(alerts=0))
        report_b = SloReport(seed=1, duration=20.0, budgets={"f": 0.1})
        report_b.rows.append(self.make_row(alerts=5))
        assert report_a.report_hash() == report_b.report_hash()

    def test_hash_sensitive_to_outcomes(self):
        report_a = SloReport(seed=1, duration=20.0, budgets={"f": 0.1})
        report_a.rows.append(self.make_row())
        report_b = SloReport(seed=1, duration=20.0, budgets={"f": 0.1})
        report_b.rows.append(self.make_row(deadline_misses=4))
        assert report_a.report_hash() != report_b.report_hash()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            run_latency_slo(schedulers=["edf", "nope"])

    def test_family_covers_all_archetypes(self):
        assert list(SCHEDULER_FAMILY) == [
            "fifo", "wfq", "drr", "static", "midrr", "edf", "qaware",
        ]
        assert set(DEFAULT_DEADLINE_BUDGETS) == {"pinned", "video", "bulk", "wire"}


@pytest.mark.slo
class TestSloSmoke:
    """Tier-1 smoke: a short two-scheduler sweep, hashed twice from
    the same seed (the acceptance determinism contract)."""

    def test_report_deterministic_across_runs(self):
        def report():
            return run_latency_slo(
                seed=5, duration=20.0, schedulers=["edf", "qaware"]
            )

        first = report()
        assert [row.scheduler for row in first.rows] == ["edf", "qaware"]
        for row in first.rows:
            assert row.deadline_packets > 0
            assert row.bytes_total > 0
            assert 0.0 < row.jain_fairness <= 1.0
        assert first.report_hash() == report().report_hash(), (
            "SLO report must be byte-identical across runs of one seed"
        )
        text = first.to_text()
        assert first.report_hash() in text
        assert "edf" in text and "qaware" in text
