"""Reporting tests: tables and chrome-trace export."""

import json

import pytest

from repro.engine import LLMEngine, Strategy
from repro.reporting import format_table
from repro.reporting.timeline import export_chrome_trace, to_trace_events

from tests.conftest import tiny_cost_model


class TestFormatTable:
    def test_alignment_and_structure(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["xyz", 10000.0]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_float_rendering(self):
        text = format_table("T", ["v"], [[0.123456], [12.3456], [12345.6]])
        assert "0.123" in text
        assert "12.35" in text
        assert "12,346" in text

    def test_zero_renders_plainly(self):
        assert "0" in format_table("T", ["v"], [[0.0]])


class TestChromeTrace:
    @pytest.fixture
    def report(self):
        engine = LLMEngine("Tiny-2L", Strategy.VLLM_ASYNC, seed=91,
                           cost_model=tiny_cost_model())
        return engine.cold_start()

    def test_events_cover_all_stages(self, report):
        events = to_trace_events(report)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "structure_init" in names
        assert "capture" in names

    def test_events_are_microseconds(self, report):
        events = [e for e in to_trace_events(report) if e["ph"] == "X"]
        structure = next(e for e in events if e["name"] == "structure_init")
        assert structure["dur"] == pytest.approx(
            report.stage_durations["structure_init"] * 1e6)

    def test_async_stages_overlap_in_trace(self, report):
        events = [e for e in to_trace_events(report) if e["ph"] == "X"]
        weights = next(e for e in events if e["name"] == "load_weights")
        tokenizer = next(e for e in events if e["name"] == "load_tokenizer")
        assert weights["ts"] == tokenizer["ts"]     # overlapped branches
        assert weights["tid"] != tokenizer["tid"]   # different resources

    def test_export_is_valid_json(self, report):
        payload = json.loads(export_chrome_trace([report, report]))
        assert "traceEvents" in payload
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {0, 1}
