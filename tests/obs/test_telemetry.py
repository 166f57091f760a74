"""Telemetry plane: windowed sinks, flight recorder, detectors, CLIs."""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import pytest

from repro import obs
from repro.obs.__main__ import main as obs_main
from repro.obs.collect import percentile
from repro.obs.detect import detect_skew, model_drift
from repro.obs.flight import FlightRecorder, flow_fingerprint
from repro.obs.telemetry import METRICS, TelemetrySink, Window


def _row(packets: int, **metrics: int) -> list[int]:
    """One per-core window row with named metric overrides."""
    values = {name: 0 for name in METRICS}
    values["packets"] = packets
    values.update(metrics)
    return [values[name] for name in METRICS]


# ------------------------------------------------------------------ #
# Windows and the sink
# ------------------------------------------------------------------ #
class TestWindow:
    def test_metric_and_extent(self):
        sink = TelemetrySink(window_packets=4)
        window = sink.record_window([_row(3, reads=7), _row(1, reads=2)])
        assert window.n_packets == 4
        assert window.metric("packets") == (3, 1)
        assert window.metric("reads") == (7, 2)
        assert window.metric("lock_waits") == (0, 0)

    def test_dict_round_trip(self):
        sink = TelemetrySink(window_packets=4)
        window = sink.record_window([_row(2, writes=5), _row(2)])
        assert Window.from_dict(window.to_dict()) == window


class TestTelemetrySink:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TelemetrySink(window_packets=0)
        with pytest.raises(ValueError):
            TelemetrySink(max_windows=0)

    def test_short_rows_zero_padded_long_rows_rejected(self):
        sink = TelemetrySink(window_packets=8)
        window = sink.record_window([[5, 1]])  # packets, reads only
        assert window.cores[0] == (5, 1) + (0,) * (len(METRICS) - 2)
        with pytest.raises(ValueError, match="window row"):
            sink.record_window([[0] * (len(METRICS) + 1)])

    def test_virtual_time_cursor_advances_by_recorded_packets(self):
        sink = TelemetrySink(window_packets=4)
        first = sink.record_window([_row(3), _row(1)])
        second = sink.record_window([_row(2), _row(2)])
        assert (first.start_packet, first.end_packet) == (0, 4)
        assert (second.start_packet, second.end_packet) == (4, 8)
        assert sink.total_packets == 8

    def test_ring_evicts_but_lifetime_totals_survive(self):
        sink = TelemetrySink(window_packets=1, max_windows=2)
        for i in range(5):
            sink.record_window([_row(1, reads=i)])
        assert len(sink) == 2  # ring holds only the newest windows
        assert sink.windows_recorded == 5
        assert [w.index for w in sink.windows] == [3, 4]
        # Conservation is eviction-proof: totals cover all 5 windows.
        assert sink.total("packets") == 5
        assert sink.total("reads") == 0 + 1 + 2 + 3 + 4
        # but the in-ring series only the surviving two
        assert sink.series("reads") == [[3], [4]]

    def test_series_pads_when_core_count_grows(self):
        sink = TelemetrySink(window_packets=4)
        sink.record_window([_row(4)])
        sink.record_window([_row(2), _row(2)])
        assert sink.n_cores == 2
        assert sink.series("packets") == [[4, 0], [2, 2]]

    def test_core_shares(self):
        sink = TelemetrySink(window_packets=4)
        assert sink.core_shares() == []
        sink.record_window([_row(3), _row(1)])
        assert sink.core_shares() == [0.75, 0.25]

    def test_summary_shape_and_percentiles(self):
        sink = TelemetrySink(window_packets=4, label="t")
        sink.record_window([_row(1), _row(3)])
        sink.record_window([_row(4), _row(0)])
        summary = sink.summary()
        assert summary["label"] == "t"
        assert summary["n_windows"] == 2
        assert summary["total_packets"] == 8
        packets = summary["metrics"]["packets"]
        assert packets["total"] == 8
        assert packets["per_core_total"] == [5, 3]
        assert packets["p50"] == [1.0, 0.0]
        assert packets["max"] == [4.0, 3.0]
        json.dumps(summary)  # report-ready

    def test_sink_dict_round_trip(self):
        sink = TelemetrySink(window_packets=4, max_windows=2, label="rt")
        for i in range(4):
            sink.record_window([_row(4, writes=i), _row(0, reads=i)])
        clone = TelemetrySink.from_dict(sink.to_dict())
        assert clone.to_dict() == sink.to_dict()
        assert clone.summary() == sink.summary()


class TestPercentileBoundaries:
    """Nearest-rank boundary behaviour the summary percentiles rely on."""

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    @pytest.mark.parametrize("q", [0, 50, 100])
    def test_single_element_is_itself_at_every_q(self, q):
        assert percentile([7.0], q) == 7.0

    def test_two_elements(self):
        assert percentile([10.0, 2.0], 0) == 2.0
        assert percentile([10.0, 2.0], 50) == 2.0  # nearest-rank: lower
        assert percentile([10.0, 2.0], 100) == 10.0


class TestAttachment:
    def test_noop_without_sink(self):
        assert obs.active_telemetry() is None
        assert not obs.telemetry_enabled()

    def test_context_manager_scopes_and_nests(self):
        outer = TelemetrySink()
        inner = TelemetrySink()
        with obs.telemetry(outer):
            assert obs.active_telemetry() is outer
            with obs.telemetry(inner):
                # innermost shadows
                assert obs.active_telemetry() is inner
            assert obs.active_telemetry() is outer
            assert obs.telemetry_enabled()
        assert obs.active_telemetry() is None

    def test_detach_requires_attached_sink(self):
        with pytest.raises(ValueError):
            obs.detach_telemetry(TelemetrySink())


# ------------------------------------------------------------------ #
# Flight recorder
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class _Op:
    obj: str
    op: str
    write: bool


class TestFlightRecorder:
    def test_fingerprint_is_process_stable(self):
        fields = ("10.0.0.1", "10.0.0.2", 1234, 80, 6)
        material = "|".join(repr(f) for f in fields).encode()
        assert flow_fingerprint(fields) == zlib.crc32(material)
        assert flow_fingerprint(fields) == flow_fingerprint(list(fields))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_ring_keeps_last_n(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record(i, 0, i % 2, "forward", 1, (i,), [])
        assert len(recorder) == 3
        assert recorder.total_recorded == 10
        assert [e["index"] for e in recorder.snapshot()] == [7, 8, 9]

    def test_path_interning_and_event_shape(self):
        recorder = FlightRecorder()
        read_path = [_Op("fw_state", "get", False)]
        write_path = [_Op("fw_state", "get", False), _Op("fw_state", "put", True)]
        recorder.record(0, 0, 2, "forward", 1, ("a",), read_path)
        recorder.record(1, 0, 2, "drop", None, ("b",), write_path)
        recorder.record(2, 1, 0, "forward", 0, ("c",), read_path)
        a, b, c = recorder.snapshot()
        assert a["path_id"] == c["path_id"] == 0  # same path interned once
        assert b["path_id"] == 1
        assert b["state_ops"] == ["fw_state.get", "fw_state.put!"]
        assert b["out_port"] is None
        assert recorder.paths()[1] == (
            ("fw_state", "get", False),
            ("fw_state", "put", True),
        )
        # events serialize straight into reproducer JSON
        json.dumps(recorder.snapshot())

    def test_snapshot_copies_and_clear(self):
        recorder = FlightRecorder()
        recorder.record(0, 0, 0, "forward", 1, ("x",), [])
        snap = recorder.snapshot()
        snap[0]["core"] = 99
        assert recorder.snapshot()[0]["core"] == 0
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.total_recorded == 1  # lifetime count survives


# ------------------------------------------------------------------ #
# Detectors
# ------------------------------------------------------------------ #
class TestDetectSkew:
    def test_empty_sink_is_quiet(self):
        finding = detect_skew(TelemetrySink())
        assert not finding.detected
        assert finding.hot_core == -1

    def test_uniform_load_stays_below_threshold(self):
        sink = TelemetrySink(window_packets=8)
        for _ in range(4):
            sink.record_window([_row(2), _row(2), _row(2), _row(2)])
        finding = detect_skew(sink)
        assert not finding.detected
        assert finding.imbalance == pytest.approx(1.0)
        assert finding.trend == pytest.approx(0.0)

    def test_hot_core_detected_with_growing_trend(self):
        sink = TelemetrySink(window_packets=8)
        # core 1 takes 4/8 then 6/8 then 8/8 of each window
        for hot in (4, 6, 8):
            rest = (8 - hot) // 2
            sink.record_window([_row(rest), _row(hot), _row(8 - hot - rest)])
        finding = detect_skew(sink)
        assert finding.detected
        assert finding.hot_core == 1
        assert finding.imbalance == pytest.approx((18 / 24) / (1 / 3))
        assert finding.trend > 0  # hotspot still growing
        assert len(finding.per_window_imbalance) == 3
        json.dumps(finding.to_dict())

    def test_threshold_is_respected(self):
        sink = TelemetrySink(window_packets=4)
        sink.record_window([_row(3), _row(1)])  # imbalance exactly 1.5
        assert detect_skew(sink, threshold=1.4).detected
        assert not detect_skew(sink, threshold=1.5).detected  # strict >


class TestModelDrift:
    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            model_drift([], [])

    def test_perfect_prediction_scores_zero(self):
        report = model_drift([0.5, 0.5], [0.5, 0.5])
        assert report.score == 0.0
        assert not report.drifted

    def test_maximal_share_drift_scores_one(self):
        report = model_drift([1.0, 0.0], [0.0, 1.0])
        assert report.score == 1.0
        assert report.drifted
        assert report.share_distance == 1.0

    def test_write_fraction_blended_half_half(self):
        report = model_drift(
            [0.5, 0.5],
            [0.5, 0.5],
            predicted_write_fraction=0.2,
            observed_write_fraction=0.6,
        )
        assert report.score == pytest.approx(0.5 * 0.0 + 0.5 * 0.4)
        assert report.write_fraction_gap == pytest.approx(0.4)
        assert report.components == {
            "share_distance": 0.0,
            "write_fraction_gap": pytest.approx(0.4),
        }

    def test_shorter_side_zero_padded(self):
        report = model_drift([1.0], [0.5, 0.5])
        assert report.predicted_shares == (1.0, 0.0)
        assert report.share_distance == pytest.approx(0.5)
        json.dumps(report.to_dict())


# ------------------------------------------------------------------ #
# Exposition: series files, Prometheus, and the CLI
# ------------------------------------------------------------------ #
def _sample_sink() -> TelemetrySink:
    sink = TelemetrySink(window_packets=4, label="cli")
    sink.record_window([_row(3, reads=6, lock_waits=3), _row(1, reads=1, lock_waits=1)])
    sink.record_window([_row(2, writes=2, new_flows=2), _row(2, lock_waits=2)])
    return sink


class TestTelemetryFiles:
    def test_round_trip_with_flight(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        sink = _sample_sink()
        events = [{"index": 7, "core": 1, "action": "drop"}]
        obs.write_telemetry(path, sink, flight=events)
        loaded, flight = obs.load_telemetry(path)
        assert loaded.to_dict() == sink.to_dict()
        assert flight == events

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "window", "index": 0}\n')
        with pytest.raises(ValueError, match="missing telemetry-meta"):
            obs.load_telemetry(str(path))

    def test_prometheus_exposition(self):
        sink = _sample_sink()
        text = obs.render_prometheus(sink)
        assert text.endswith("\n")
        assert '# TYPE repro_core_packets_total counter' in text
        assert 'repro_core_packets_total{core="0"} 5' in text
        assert 'repro_core_packets_total{core="1"} 3' in text
        assert 'repro_core_lock_waits_total{core="1"} 3' in text
        assert "steer" not in text
        assert "repro_telemetry_total_packets 8" in text


class TestTelemetryCli:
    @pytest.fixture()
    def series_file(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        obs.write_telemetry(path, _sample_sink())
        return path

    def test_top_renders_per_core_table(self, series_file, capsys):
        assert obs_main(["top", series_file]) == 0
        out = capsys.readouterr().out
        assert "== telemetry [cli]: 2 window(s)" in out
        assert "core0" in out and "core1" in out
        assert "62.5%" in out  # core0's packet share 5/8
        assert "steer" not in out

    def test_timeline_renders_windows(self, series_file, capsys):
        assert obs_main(["timeline", series_file, "--metric", "reads"]) == 0
        out = capsys.readouterr().out
        assert "== timeline: reads per window per core ==" in out
        assert "w0" in out and "0..4" in out

    def test_timeline_rejects_unknown_metric(self, series_file, capsys):
        with pytest.raises(SystemExit):  # argparse choices
            obs_main(["timeline", series_file, "--metric", "nope"])

    def test_prom_matches_renderer(self, series_file, capsys):
        assert obs_main(["prom", series_file]) == 0
        assert capsys.readouterr().out == obs.render_prometheus(_sample_sink())

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert obs_main(["top", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestReportCli:
    """The trace report CLI: --json mode and the plain sections."""

    def test_report_json_is_collector_summary(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        mem = obs.MemoryCollector()
        with obs.JsonlCollector(path) as jsonl:
            with obs.attached(jsonl), obs.attached(mem):
                obs.counter("compiled.hits", 75, nf="fw")
                obs.counter("compiled.fallbacks", 25, nf="fw")
        assert obs_main(["report", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == mem.summary()

    def test_report_omits_fastpath_section_without_counters(
        self, tmp_path, capsys
    ):
        """Steering keeps no cache, so the report has no fast-path
        (hit-rate) section to render."""
        path = str(tmp_path / "trace.jsonl")
        with obs.JsonlCollector(path) as jsonl:
            with obs.attached(jsonl):
                obs.counter("symbex.paths", 3, nf="fw")
        assert obs_main(["report", path]) == 0
        assert "fast path" not in capsys.readouterr().out
