"""compare: ok / worse / unresolved, ratios with their base."""

from perfbench import report


def _doc(workload, values_by_metric):
    return {
        "records": [
            {"workload": workload, "metric": metric, "value": value,
             "kind": "end_to_end"}
            for metric, values in values_by_metric.items()
            for value in values
        ]
    }


def _verdicts(base, other):
    rows, failed = report.compare(base, other)
    return {row["metric"]: row["verdict"] for row in rows}, failed


def test_within_bound_is_ok_and_beyond_is_worse():
    base = _doc("point_read", {
        "latency_p50_ms": [2.00, 2.01, 2.02, 1.99, 2.00],
        "throughput_rps": [800, 802, 798, 801, 799],
    })
    same = _doc("point_read", {
        "latency_p50_ms": [2.10, 2.11, 2.09, 2.10, 2.12],   # +5 %
        "throughput_rps": [790, 792, 788, 791, 789],
    })
    verdicts, failed = _verdicts(base, same)
    assert verdicts == {"latency_p50_ms": "ok", "throughput_rps": "ok"}
    assert not failed
    slow = _doc("point_read", {
        "latency_p50_ms": [2.60, 2.61, 2.59, 2.60, 2.62],   # +30 %
        "throughput_rps": [560, 562, 558, 561, 559],        # -30 %
    })
    verdicts, failed = _verdicts(base, slow)
    assert verdicts == {"latency_p50_ms": "worse", "throughput_rps": "worse"}
    assert failed


def test_ratio_is_other_over_base():
    rows, _ = report.compare(
        _doc("point_read", {"latency_p50_ms": [2.0]}),
        _doc("point_read", {"latency_p50_ms": [3.0]}),
    )
    assert rows[0]["ratio"] == 1.5 and rows[0]["base"] == 2.0


def test_spread_wider_than_bound_is_unresolved_unless_separated():
    noisy = [1.0, 1.6, 2.0, 2.4, 3.0]
    base = _doc("scatter_read", {"latency_p95_ms": noisy})
    other = _doc("scatter_read", {"latency_p95_ms": [v * 1.2 for v in noisy]})
    verdicts, failed = _verdicts(base, other)
    assert verdicts == {"latency_p95_ms": "unresolved"} and not failed
    # every run of one side beats every run of the other: resolved
    far = _doc("scatter_read", {"latency_p95_ms": [v + 10 for v in noisy]})
    verdicts, failed = _verdicts(base, far)
    assert verdicts == {"latency_p95_ms": "worse"} and failed
    better = _doc("scatter_read", {"latency_p95_ms": [v / 10 for v in noisy]})
    verdicts, failed = _verdicts(base, better)
    assert verdicts == {"latency_p95_ms": "ok"} and not failed


def test_any_rise_in_failed_share_fails():
    base = _doc("mixed_rw", {"failed_share": [0.0, 0.0]})
    verdicts, failed = _verdicts(
        base, _doc("mixed_rw", {"failed_share": [0.0, 0.001, 0.001]})
    )
    assert verdicts == {"failed_share": "worse"} and failed
    verdicts, failed = _verdicts(base, base)
    assert verdicts == {"failed_share": "ok"} and not failed


def test_primary_metrics_only_compare_on_their_own_workload():
    base = _doc("point_read", {"update_p50_ms": [30.0]})
    rows, _ = report.compare(base, base)
    assert rows == []
    base = _doc("mixed_rw", {"update_p50_ms": [30.0]})
    rows, _ = report.compare(base, base)
    assert [row["metric"] for row in rows] == ["update_p50_ms"]


def test_tails_taken_at_different_levels_are_not_compared():
    def doc(level):
        return {"records": [
            {"workload": "mixed_rw", "metric": "update_p95_ms",
             "value": 40.0, "kind": "primary", "level": level},
        ]}

    verdicts, failed = _verdicts(doc(95.0), doc(95.0))
    assert verdicts == {"update_p95_ms": "ok"} and not failed
    verdicts, failed = _verdicts(doc(95.0), doc(75.0))
    assert verdicts == {"update_p95_ms": "levels-differ"} and failed


def test_a_tail_record_says_which_level_it_is():
    rows = report.records(
        "mixed_rw", 4, {"update_p95_ms": (40.0, 60), "update_p50_ms": (30.0, 60)},
        levels={"update_p95_ms": 75.0},
    )
    assert [row.get("level") for row in rows] == [75.0, None]
