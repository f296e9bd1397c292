"""Span self-time arithmetic: self = span minus the part its children
cover."""

import json

import pytest

from perfbench.spans import SpanRecorder, self_times


def test_self_time_subtracts_direct_children_only():
    #            name      start end  parent request
    spans = [
        ["request", 0.0, 10.0, None, 7],
        ["parse", 1.0, 2.0, 0, 7],
        ["execute", 3.0, 9.0, 0, 7],
        ["sql", 4.0, 8.0, 2, 7],       # grandchild: charged to execute
    ]
    selfs = self_times(spans)
    assert selfs["request"] == [pytest.approx(10.0 - 1.0 - 6.0)]
    assert selfs["parse"] == [pytest.approx(1.0)]
    assert selfs["execute"] == [pytest.approx(6.0 - 4.0)]
    assert selfs["sql"] == [pytest.approx(4.0)]
    # nothing is counted twice: self times add up to the root
    assert sum(v[0] for v in selfs.values()) == pytest.approx(10.0)


def test_open_spans_are_skipped():
    spans = [["request", 0.0, None, None, 1], ["parse", 1.0, 2.0, 0, 1]]
    assert self_times(spans) == {"parse": [pytest.approx(1.0)]}


def test_recorder_nests_and_inherits_the_request(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("request", request=3):
        with recorder.span("parse"):
            pass
        with recorder.span("execute"):
            with recorder.span("sql"):
                pass
    records = recorder.records()
    assert [r["name"] for r in records] == [
        "request", "parse", "execute", "sql",
    ]
    assert [r["parent"] for r in records] == [None, 0, 0, 2]
    assert {r["request"] for r in records} == {3}
    assert all(r["end"] >= r["start"] for r in records)
    selfs = recorder.self_times()
    total = records[0]["end"] - records[0]["start"]
    assert sum(v[0] for v in selfs.values()) == pytest.approx(total)
    path = tmp_path / "spans.jsonl"
    recorder.write(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert set(json.loads(lines[0])) == {
        "name", "start", "end", "parent", "request",
    }


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=False)
    with recorder.span("request", request=1):
        with recorder.span("parse"):
            pass
    assert recorder.spans == []
