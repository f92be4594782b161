"""Tests for repro.workload.traces."""

import json

import pytest

from repro.exceptions import WorkloadError
from repro.net.topologies import sub_b4
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.traces import (
    arrival_stream,
    iter_trace_jsonl,
    load_trace,
    load_trace_jsonl,
    requests_from_dicts,
    requests_to_dicts,
    save_trace,
    save_trace_jsonl,
    trace_jsonl_header,
)


@pytest.fixture
def workload():
    return generate_workload(sub_b4(), WorkloadConfig(num_requests=15), rng=3)


class TestDictRoundTrip:
    def test_fields_preserved(self, workload):
        restored = requests_from_dicts(requests_to_dicts(workload))
        assert restored.num_slots == workload.num_slots
        assert len(restored) == len(workload)
        for a, b in zip(workload, restored):
            assert a.request_id == b.request_id
            assert str(a.source) == b.source and str(a.dest) == b.dest
            assert (a.start, a.end) == (b.start, b.end)
            assert a.rate == pytest.approx(b.rate)
            assert a.value == pytest.approx(b.value)

    def test_bad_version(self, workload):
        payload = requests_to_dicts(workload)
        payload["format_version"] = -1
        with pytest.raises(WorkloadError, match="format version"):
            requests_from_dicts(payload)


class TestFileRoundTrip:
    def test_save_load(self, workload, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(workload, path)
        restored = load_trace(path)
        assert len(restored) == len(workload)
        assert restored.total_value == pytest.approx(workload.total_value)

    def test_file_is_valid_json(self, workload, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(workload, path)
        payload = json.loads(path.read_text())
        assert payload["num_slots"] == 12
        assert len(payload["requests"]) == 15


class TestJsonlStreaming:
    def test_roundtrip(self, workload, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(workload, workload.num_slots, path)
        restored = load_trace_jsonl(path)
        assert restored.num_slots == workload.num_slots
        assert [r.request_id for r in restored] == [r.request_id for r in workload]
        assert restored.total_value == pytest.approx(workload.total_value)

    def test_iter_is_lazy(self, workload, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(workload, workload.num_slots, path)
        iterator = iter_trace_jsonl(path)
        first = next(iterator)
        assert first.request_id == workload.requests[0].request_id
        assert len(list(iterator)) == len(workload) - 1

    def test_accepts_generator_input(self, workload, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl((r for r in workload), workload.num_slots, path)
        header = trace_jsonl_header(path)
        assert header["num_slots"] == workload.num_slots

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(WorkloadError, match="header"):
            list(iter_trace_jsonl(path))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format_version": 99, "num_slots": 4}\n')
        with pytest.raises(WorkloadError, match="format version"):
            list(iter_trace_jsonl(path))

    def test_missing_num_slots_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format_version": 1}\n')
        with pytest.raises(WorkloadError, match="num_slots"):
            trace_jsonl_header(path)


class TestMalformedJsonlLines:
    """Malformed request lines must fail loudly, with the line number."""

    HEADER = '{"format_version": 1, "num_slots": 6}\n'
    GOOD = (
        '{"request_id": 0, "source": "a", "dest": "b", '
        '"start": 0, "end": 2, "rate": 1.0, "value": 2.0}\n'
    )

    def test_truncated_line_reports_line_number(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(self.HEADER + self.GOOD + self.GOOD[: len(self.GOOD) // 2])
        with pytest.raises(WorkloadError, match="line 3.*malformed"):
            load_trace_jsonl(path)

    def test_garbage_line_reports_line_number(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text(self.HEADER + self.GOOD + "%%% not json %%%\n" + self.GOOD)
        with pytest.raises(WorkloadError, match="line 3"):
            list(iter_trace_jsonl(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "array.jsonl"
        path.write_text(self.HEADER + "[1, 2, 3]\n")
        with pytest.raises(WorkloadError, match="line 2.*JSON"):
            load_trace_jsonl(path)

    def test_missing_field_reports_line_number(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(
            self.HEADER + '{"request_id": 0, "source": "a", "dest": "b"}\n'
        )
        with pytest.raises(WorkloadError, match="line 2.*invalid trace record"):
            load_trace_jsonl(path)

    def test_invalid_request_values_report_line_number(self, tmp_path):
        bad = self.GOOD.replace('"rate": 1.0', '"rate": -3.0')
        path = tmp_path / "negative.jsonl"
        path.write_text(self.HEADER + self.GOOD + bad.replace('"request_id": 0', '"request_id": 1'))
        with pytest.raises(WorkloadError, match="line 3.*rate"):
            load_trace_jsonl(path)

    def test_non_finite_value_reports_line_number(self, tmp_path):
        bad = self.GOOD.replace('"value": ', '"value": Infinity, "was": ')
        path = tmp_path / "infinite.jsonl"
        path.write_text(self.HEADER + bad)
        with pytest.raises(WorkloadError, match="line 2.*value must be finite"):
            load_trace_jsonl(path)

    def test_trace_source_propagates_line_number(self, tmp_path):
        from repro.service.ingest import TraceSource

        path = tmp_path / "torn.jsonl"
        path.write_text(self.HEADER + self.GOOD[: len(self.GOOD) // 2])
        with pytest.raises(WorkloadError, match="line 2"):
            TraceSource(path)


class TestArrivalStream:
    def test_groups_by_start_slot(self, workload):
        batches = list(arrival_stream(workload))
        slots = [slot for slot, _ in batches]
        assert slots == sorted(set(r.start for r in workload))
        regrouped = [r.request_id for _, batch in batches for r in batch]
        assert regrouped == [r.request_id for r in workload]

    def test_empty_stream(self):
        assert list(arrival_stream([])) == []

    def test_out_of_order_rejected(self):
        from tests.conftest import make_request

        requests = [
            make_request(0, start=2, end=3),
            make_request(1, start=1, end=3),
        ]
        with pytest.raises(WorkloadError, match="arrived? at slot|arrives at slot"):
            list(arrival_stream(requests))
