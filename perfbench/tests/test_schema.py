"""BENCHMARK.json, spec.py and the result line agree on every name."""

import json
import os
import re

from perfbench import ROOT, report, spec, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_has_exactly_the_contract_keys():
    doc = _benchmark()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_workloads_match_the_spec():
    doc = _benchmark()
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == spec.WORKLOADS[workload["name"]]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert set(workloads.WORKLOAD_CLASSES) == set(spec.WORKLOADS)


def test_metrics_match_the_spec():
    doc = _benchmark()
    assert [m["name"] for m in doc["end_to_end"]] == list(spec.END_TO_END)
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        metric = spec.END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
        assert 0 < entry["bound"] <= 0.25
    assert "setup_s" in spec.END_TO_END
    assert spec.END_TO_END["setup_s"].bound == max(
        m.bound for m in spec.END_TO_END.values()
    )
    assert [m["name"] for m in doc["per_layer"]] == list(spec.PER_LAYER)
    assert 1 <= len(doc["per_layer"]) <= 128
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        metric = spec.PER_LAYER[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
    names = [
        m["name"] for m in doc["end_to_end"] + doc["per_layer"]
    ] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")


def test_every_end_to_end_metric_is_bound_on_every_workload():
    for name in spec.END_TO_END:
        assert set(spec.BINDINGS[name]) == set(spec.WORKLOADS), name
    for name, metric in spec.PRIMARY.items():
        assert set(metric.workloads) <= set(spec.WORKLOADS), name


def test_the_window_is_long_enough_for_the_levels_in_the_names():
    # a p95 needs ten samples beyond it: 200 updates, 200 arrivals
    assert spec.RUN_SECONDS * workloads.WRITE_RATE >= 200
    open_seconds = int(spec.RUN_SECONDS * workloads.ScatterRead.OPEN_SHARE)
    assert open_seconds * workloads.OPEN_LOOP_RATE >= 200


def _late_run(monkeypatch):
    """Make every run an invalid one; returns the sizes it was given."""
    given = []

    def late(name, seed, seconds, sizes, corrupt):
        given.append(sizes)
        result = workloads.Result(name, seed, seconds, attempted=5)
        for index, metric in enumerate(spec.END_TO_END):
            result.put(metric, 1.5 + index, 5)
        result.invalid = "generator schedule slip p99 7.50 ms > 2 ms"
        return result

    monkeypatch.setattr(workloads, "run_workload", late)
    return given


def test_perfbench_run_reports_nothing_of_an_invalid_run(
    monkeypatch, capsys, tmp_path
):
    from perfbench import cli

    _late_run(monkeypatch)
    out = tmp_path / "run.json"
    code = cli.main(
        ["run", "--workload", "scatter_read", "--seconds", "1",
         "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID
    assert captured.out == "" and "INVALID RUN" in captured.err
    assert json.loads(out.read_text())["records"] == []


def test_the_driver_entry_answers_a_late_run_too(monkeypatch, capsys):
    # the PR driver refuses a benchmark one of whose runs has no result
    from perfbench import cli

    given = _late_run(monkeypatch)
    code = cli.driver_main(
        ["--workload", "scatter_read", "--seed", "1", "--seconds", "1"]
    )
    captured = capsys.readouterr()
    assert code == 0 and "INVALID RUN" in captured.err
    line = json.loads(captured.out.strip().splitlines()[-1])
    assert line["correct"] is True
    assert set(line["metrics"]) == set(spec.END_TO_END)
    # and does not spend its time budget on second offers
    assert given[0].open_attempts == 1


def test_result_line_schema():
    result = workloads.Result("point_read", 3, 1.0, attempted=10, failed=0)
    metrics = {
        name: (1.25 + index, 10)
        for index, name in enumerate(spec.END_TO_END)
    }
    line = json.loads(report.driver_line(result, spec.END_TO_END, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 10
    assert set(line["metrics"]) == set(spec.END_TO_END)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == spec.END_TO_END[name].unit
    result.failed = 1
    assert json.loads(
        report.driver_line(result, spec.END_TO_END, metrics)
    )["correct"] is False


def test_records_carry_the_record_shape():
    rows = report.records("mixed_rw", 4, {"update_p50_ms": (30.0, 120)})
    assert rows == [
        {"workload": "mixed_rw", "metric": "update_p50_ms", "value": 30.0,
         "unit": "ms", "n": 120, "seed": 4, "kind": "primary"},
    ]
    doc = report.document(rows, [])
    assert set(doc["machine"]) == {"nproc", "python", "sqlite"}
    assert "git_sha" in doc
