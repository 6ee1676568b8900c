import csv
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    InjectionConfig,
    PacketRow,
    _report,
    config_from_file,
    render_csv,
    run_experiment,
    stats_from_csv,
    write_report,
)
from socketstore.fixtures import EVALUATION_TOPOLOGY
from socketstore.kmflash import delivery_stats, earliest_latencies
from socketstore.netsim import DeliveryRecord, FlowId, Packet


class TestModuleRun:
    def test_default_config_full_delivery(self):
        report = run_experiment(ExperimentConfig())
        assert report.mode == "module"
        assert report.stats.losses == 0
        assert report.stats.deadline_violations == 0
        assert report.stats.sent == 100
        assert len(report.rows) == 100

    def test_cost_report_attached(self):
        report = run_experiment(ExperimentConfig())
        assert report.cost is not None
        assert report.cost.raw_total > 0
        assert len(report.cost.rows) == 2  # one registration per mirror path

    def test_rows_have_both_path_latencies(self):
        report = run_experiment(ExperimentConfig())
        for row in report.rows:
            assert row.latency_path0_ms is not None
            assert row.latency_path1_ms is not None
            assert row.earliest_ms == min(row.latency_path0_ms, row.latency_path1_ms)
            assert row.violated == 0

    def test_unpurchased_module_reports_fallback(self):
        report = run_experiment(ExperimentConfig(purchase=False))
        assert report.mode == "fallback"
        assert report.failure_reason == "authorization denied"
        assert all(row.latency_path1_ms is None for row in report.rows)


class TestBaselineRun:
    def test_twenty_violations_at_default_settings(self):
        report = run_experiment(ExperimentConfig(module="baseline"))
        assert report.mode == "baseline"
        assert report.stats.deadline_violations == 20
        assert report.stats.losses == 0
        assert report.stats.in_deadline_ratio == pytest.approx(0.8)

    def test_baseline_rows_single_path(self):
        report = run_experiment(ExperimentConfig(module="baseline"))
        assert all(row.latency_path1_ms is None for row in report.rows)
        violated = [row.seq for row in report.rows if row.violated]
        assert violated == list(range(39, 59))


def renamed_hosts_topology(tmp_path) -> str:
    """The evaluation topology with hosts A and B renamed, written to a file."""
    names = {"A": "Alice", "B": "Bob"}
    doc = json.loads(json.dumps(EVALUATION_TOPOLOGY))
    for node in doc["nodes"]:
        node["id"] = names.get(node["id"], node["id"])
    for link in doc["links"]:
        link["endpoints"] = [names.get(end, end) for end in link["endpoints"]]
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestTopologyHosts:
    """A run goes between its topology's first two hosts, whatever their names."""

    @pytest.mark.parametrize("module, mode, violations", [
        ("flash-delivery", "module", 0),
        ("baseline", "baseline", 20),
    ])
    def test_hosts_not_named_a_and_b(self, tmp_path, module, mode, violations):
        config = ExperimentConfig(module=module, topology_path=renamed_hosts_topology(tmp_path),
                                  injection=InjectionConfig("R4-Bob", 10.0, 40.0, 60.0))
        report = run_experiment(config)
        assert (report.mode, report.stats.losses) == (mode, 0)
        assert report.stats.deadline_violations == violations
        default = run_experiment(ExperimentConfig(module=module))
        assert render_csv(report) == render_csv(default)


class TestConfig:
    def test_empty_payloads_accepted(self):
        report = run_experiment(ExperimentConfig(payload_size=0, packet_count=3))
        assert (report.mode, report.stats.losses) == ("module", 0)

    @pytest.mark.parametrize("field, value, message", [
        ("packet_count", 0, "packet count must be >= 1"),
        ("deadline_ms", 0, "deadline must be positive"),
        ("gap_ms", -1.0, "gap must be >= 0"),
        ("k", 0, "K must be >= 1"),
        ("rate_mbps", 0.0, "rate must be a positive number"),
        ("rate_mbps", math.nan, "rate must be a positive number"),
    ], ids=["packet_count", "deadline_ms", "gap_ms", "k", "rate_mbps", "rate_mbps_nan"])
    def test_out_of_range_field_rejected(self, field, value, message):
        with pytest.raises(ExperimentError, match=message):
            run_experiment(ExperimentConfig(**{field: value}))

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "module": "baseline",
            "packet_count": 10,
            "injection": {"link": "R4-B", "extra_ms": 10.0,
                          "start_ms": 2.0, "end_ms": 4.0},
        }))
        config = config_from_file(str(path), seed=3)
        assert config.module == "baseline"
        assert config.packet_count == 10
        assert config.seed == 3
        assert config.injection == InjectionConfig("R4-B", 10.0, 2.0, 4.0)

    def test_partial_injection_keeps_the_spike_fields_it_omits(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"injection": {"link": "R3-R4", "end_ms": 80.0}}))
        assert config_from_file(str(path)).injection == InjectionConfig(
            "R3-R4", 10.0, 40.0, 80.0)

    def test_config_file_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"velocity": 9000}))
        with pytest.raises(ExperimentError, match="unknown config fields"):
            config_from_file(str(path))


class TestCSV:
    def test_columns(self):
        report = run_experiment(ExperimentConfig(packet_count=3))
        lines = render_csv(report).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == ["seq", "sent_at_ms", "latency_path0_ms", "latency_path1_ms",
                               "earliest_ms", "violated"]
        assert len(lines) == 4

    def test_rows_are_immutable(self):
        row = run_experiment(ExperimentConfig(packet_count=1)).rows[0]
        with pytest.raises(AttributeError):
            row.violated = 1
        assert row == tuple(getattr(row, column) for column in CSV_COLUMNS)

    def test_summary_recomputable_from_rows(self):
        for module in ("flash-delivery", "baseline"):
            config = ExperimentConfig(module=module)
            report = run_experiment(config)
            recomputed = stats_from_csv(render_csv(report), config.deadline_ms)
            assert recomputed == report.stats

    def test_byte_identical_across_seeded_runs(self):
        for module in ("flash-delivery", "baseline"):
            a = render_csv(run_experiment(ExperimentConfig(module=module, seed=42)))
            b = render_csv(run_experiment(ExperimentConfig(module=module, seed=42)))
            assert a.encode() == b.encode()

    def test_default_outputs_pinned(self):
        """Repeat runs agree with each other; these pin them across versions."""
        cost_row = {"kind": "link_capacity", "quantity": 0.99, "subtotal": 0.00099,
                    "unit": "Mbps-s", "unit_price": 0.001}
        expected = {
            "flash-delivery": (
                "074b718edc6f63bf0c31a2bcd9db4bf342ee3120076c859cd99de7e5905ab974",
                {"mode": "module", "sent": 100, "delivered_unique": 100, "losses": 0,
                 "deadline_violations": 0, "in_deadline_ratio": 1.0,
                 "cost": {"raw_total": 0.00198, "weighted_total": 0.00198, "rows": [
                     dict(cost_row, resource_id="path-0:A-R1+R1-R3+R3-R4+R4-B"),
                     dict(cost_row, resource_id="path-1:A-R2+R2-R3+R3-R5+R5-B"),
                 ]}},
            ),
            "baseline": (
                "21a3efad96273a09049989ae2d7782bafe1477d3f8d9b1d5774ad80551a69203",
                {"mode": "baseline", "sent": 100, "delivered_unique": 100, "losses": 0,
                 "deadline_violations": 20, "in_deadline_ratio": 0.8},
            ),
        }
        for module, (csv_sha256, summary) in expected.items():
            report = run_experiment(ExperimentConfig(module=module))
            assert hashlib.sha256(render_csv(report).encode()).hexdigest() == csv_sha256
            assert report.summary_doc() == summary

    @pytest.mark.parametrize("module, csv_sha256, violations", [
        ("flash-delivery", "f617d6c13155c529f997271cd23dee19bfbec067c04f822be278b1437ec914f3", 0),
        ("baseline", "043f62a0c849423105cec1bb830b318f82d04a630c38fa078a8a9f636ba59837", 28),
    ])
    def test_long_stream_outputs_pinned(self, module, csv_sha256, violations):
        """5,000 packets at a fractional gap with a spike in mid-stream: every
        send time and window edge rounds to whole nanoseconds as pinned here."""
        config = ExperimentConfig(module=module, packet_count=5000, gap_ms=0.37,
                                  injection=InjectionConfig("R4-B", 10.0, 1000.05, 1010.2))
        report = run_experiment(config)
        assert hashlib.sha256(render_csv(report).encode()).hexdigest() == csv_sha256
        assert report.stats.deadline_violations == violations

    def test_edge_rows_written_as_csv_writer_writes_them(self):
        """None in each optional column, zeros of both signs, the least
        subnormal, a float past 2**53, a sum that rounds, a float that repr
        writes in exponent form, a seq of seven digits, and both violated values;
        the statistics read back from the text are the report's."""
        rows = [PacketRow(0, 0.0, None, 1.5, 1.5, 0),
                PacketRow(1, -0.0, 0.0, None, 0.0, 0),
                PacketRow(2, 5e-324, 1e-05, 0.1 + 0.2, 1e-05, 0),
                PacketRow(3, 1e16, 1e16, 2.5, None, 1),
                PacketRow(10**6, 0.1 + 0.2, None, None, None, 1),
                PacketRow(10**6 + 1, 1e-05, 5e-324, 1e16, 1e16, 1)]
        deadline_ms = 2.0
        report = ExperimentReport("module", rows, delivery_stats(
            [row.earliest_ms for row in rows], deadline_ms), None)
        assert render_csv(report).encode() == csv_writer_text(rows).encode()
        assert stats_from_csv(render_csv(report), deadline_ms) == report.stats

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.builds(
        PacketRow, st.integers(min_value=0, max_value=10**7), st.floats(allow_nan=False),
        *[st.none() | st.floats(allow_nan=False)] * 3, st.sampled_from([0, 1]))))
    def test_property_rows_written_as_csv_writer_writes_them(self, rows):
        report = ExperimentReport("module", rows, delivery_stats([], 1.0), None)
        assert render_csv(report) == csv_writer_text(rows)

    def test_write_report_files(self, tmp_path):
        report = run_experiment(ExperimentConfig(packet_count=5))
        paths = write_report(report, str(tmp_path), prefix="demo")
        with open(paths["summary"], "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["mode"] == "module"
        assert summary["sent"] == 5
        assert "cost" in summary
        with open(paths["csv"], "r", encoding="utf-8") as fh:
            assert fh.readline().strip() == ",".join(CSV_COLUMNS)


def csv_writer_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([CSV_COLUMNS, *rows])
    return buf.getvalue()


def record(seq: int, index: int, sent_at_ms: float, latency_ms: float | None) -> DeliveryRecord:
    """Copy `index` of `seq`; a latency of None is a lost copy."""
    delivered = latency_ms is not None
    return DeliveryRecord(Packet(FlowId("A", "B", "f"), seq, 512, sent_at_ms, 5.0, index),
                          delivered, sent_at_ms + latency_ms if delivered else None, latency_ms,
                          False, (), ())


# a few latencies, so that a seq's copies often tie; None is a lost copy
LATENCIES = st.none() | st.sampled_from([0.0, 1.0, 1.5, 2.0, 12.0])


def per_seq_lists(min_copies: int):
    """Each seq's records, copy i on path index i, all sent at the seq's time."""
    return st.lists(st.tuples(st.sampled_from([0.0, 0.37, 1e-05, 250.0]),
                              st.lists(LATENCIES, min_size=min_copies, max_size=3)),
                    max_size=12).map(lambda seqs: [
                        [record(seq, index, sent, lat) for index, lat in enumerate(lats)]
                        for seq, (sent, lats) in enumerate(seqs)])


class TestReduction:
    """The per-seq reduction that the report and the testbed share, against
    its definition."""

    @settings(max_examples=300, deadline=None)
    @given(per_seq=per_seq_lists(min_copies=0))
    def test_property_earliest_is_the_least_delivered_latency(self, per_seq):
        assert earliest_latencies(per_seq) == [
            min([rec.latency_ms for rec in records if rec.delivered], default=None)
            for records in per_seq if records]

    @settings(max_examples=300, deadline=None)
    @given(per_seq=per_seq_lists(min_copies=1), deadline_ms=st.sampled_from([0.5, 1.5, 2.0]))
    def test_property_report_rows_match_their_definition(self, per_seq, deadline_ms):
        report = _report("module", per_seq, ExperimentConfig(deadline_ms=deadline_ms), None)
        expected = []
        for seq, records in enumerate(per_seq):
            first = min([rec.latency_ms for rec in records if rec.delivered], default=None)
            expected.append(PacketRow(
                seq=seq, sent_at_ms=records[0].packet.sent_at_ms,
                latency_path0_ms=records[0].latency_ms,
                latency_path1_ms=records[1].latency_ms if len(records) > 1 else None,
                earliest_ms=first, violated=0 if first is not None and first <= deadline_ms else 1))
        assert all(type(row) is PacketRow for row in report.rows)
        assert [row._asdict() for row in report.rows] == [row._asdict() for row in expected]
        assert report.stats == delivery_stats([row.earliest_ms for row in expected], deadline_ms)
