"""The JSON-lines trace sink and tracer installation scopes."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import trace
from repro.obs.sink import JsonlSink, iter_trace, read_trace, validate_trace


class TestJsonlSink:
    def test_records_round_trip_in_order(self, tmp_path):
        path = tmp_path / "run.jsonl"
        records = [{"type": "event", "n": index} for index in range(5)]
        with JsonlSink(path) as sink:
            for record in records:
                sink.write(record)
        assert list(iter_trace(path)) == records

    def test_reopening_appends(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for index in range(2):
            with JsonlSink(path) as sink:
                sink.write({"n": index})
        assert read_trace(path) == [{"n": 0}, {"n": 1}]

    def test_each_record_is_flushed_before_close(self, tmp_path):
        """A process dying mid-run still leaves every written line."""
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        sink.write({"n": 1})
        assert path.read_text() == '{"n":1}\n'
        sink.close()

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.close()
        sink.close()

    def test_non_json_values_are_stringified(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"path": tmp_path})
        assert read_trace(path) == [{"path": str(tmp_path)}]

    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)

        def writer(worker):
            for index in range(200):
                sink.write({"worker": worker, "n": index,
                            "pad": "x" * 100})

        threads = [threading.Thread(target=writer, args=(worker,))
                   for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        records = read_trace(path)
        assert len(records) == 800
        for worker in range(4):
            assert [r["n"] for r in records if r["worker"] == worker] \
                == list(range(200))


class TestIterTrace:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"n": 1}\n\n   \n{"n": 2}\n')
        assert read_trace(path) == [{"n": 1}, {"n": 2}]

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"n": 1}\n{"n": \n')
        with pytest.raises(json.JSONDecodeError):
            read_trace(path)


class TestTracerScopes:
    def test_streaming_tracer_can_drop_in_memory_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            tracer = trace.Tracer(trace_id="t", sink=sink, keep_records=False)
            tracer.emit({"type": "event", "name": "x"})
        assert tracer.records == []
        assert read_trace(path) == [{"type": "event", "name": "x"}]

    def test_span_ids_are_unique(self):
        tracer = trace.Tracer(trace_id="t")
        assert len({tracer.new_span_id() for _ in range(100)}) == 100

    def test_use_tracer_restores_the_previous_override(self):
        outer, inner = trace.Tracer(trace_id="o"), trace.Tracer(trace_id="i")
        with trace.use_tracer(outer):
            with trace.use_tracer(inner):
                assert trace.active_tracer() is inner
            assert trace.active_tracer() is outer
        assert trace.active_tracer() is None

    def test_use_tracer_is_thread_local(self):
        seen = []
        with trace.use_tracer(trace.Tracer(trace_id="main")):
            thread = threading.Thread(
                target=lambda: seen.append(trace.active_tracer()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_current_span_id_follows_the_open_span(self):
        tracer = trace.Tracer(trace_id="t")
        assert trace.current_span_id() is None
        with trace.use_tracer(tracer):
            with trace.span("outer") as handle:
                assert trace.current_span_id() == handle.span_id
        assert trace.current_span_id() is None

    def test_tracing_to_a_path_writes_a_valid_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with trace.tracing(path, profile_kernels=False):
            with trace.span("work", size=3):
                trace.event("retry", attempt=1)
        count, errors = validate_trace(path)
        assert errors == []
        kinds = [record["type"] for record in read_trace(path)]
        assert count == 4
        assert kinds == ["meta", "event", "span", "metrics"]
