"""Live ops documents: Prometheus text exposition, health, snapshot.

:func:`to_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
as Prometheus text exposition format 0.0.4 — counters as ``_total``,
gauges as-is, histograms as summaries (``{quantile="0.5"}`` series plus
``_sum``/``_count``), and each instrument's *sliding window* as a
separate ``_window`` family labelled ``window="60s"`` so dashboards can
plot "p99 over the last minute" next to the lifetime p99.

:func:`parse_prometheus` is the matching validator: a strict-enough
parser of the exposition format used by the tests and the CI smoke job
to assert the endpoint serves well-formed output (no scrape stack in
this zero-dependency repo, so we check our own homework).

:func:`health_document` and :func:`snapshot_document` build the other
two ops documents from plain arguments.  This module opens no socket:
the process's one HTTP surface, :class:`repro.serve.gateway.Gateway`,
serves the three as its read-only routes ``GET /metrics``,
``/healthz`` (HTTP 200 when ``status == "ok"``, 503 otherwise, so a
load balancer can act on the status code alone) and ``/snapshot``.
"""

from __future__ import annotations

import re
import time

from repro.obs.events import RequestLog
from repro.obs.metrics import MetricsRegistry

#: ``Content-Type`` of the ``/metrics`` exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Sliding-window widths (seconds) exported beside the lifetime series.
WINDOWS = (60.0,)

#: Wide events served in the ``/snapshot`` tail.
TAIL_EVENTS = 50

#: Prefix for every exported metric family.
PROM_PREFIX = "xmlrel_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Quantiles exported for histogram summaries (lifetime and windowed).
_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def _prom_name(name: str) -> str:
    """A registry instrument name as a valid Prometheus metric name."""
    return PROM_PREFIX + _NAME_RE.sub("_", name)


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def to_prometheus(
    registry: MetricsRegistry,
    windows: tuple[float, ...] = WINDOWS,
    extra: dict | None = None,
) -> str:
    """Render *registry* in Prometheus text exposition format 0.0.4.

    *windows* lists the sliding-window widths (seconds) to export next
    to the lifetime series; *extra* adds flat ``name -> value`` gauges
    (e.g. health facts) without registering instruments.
    """
    snapshot = registry.snapshot()
    lines: list[str] = []

    for name, value in snapshot["counters"].items():
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")

    for name, gauge in snapshot["gauges"].items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(gauge['value'])}")
        lines.append(
            f"{metric}_high_water {_prom_value(gauge['high_water'])}"
        )

    for name, summary in snapshot["histograms"].items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in _QUANTILES:
            lines.append(
                f'{metric}{{quantile="{quantile}"}} '
                f"{_prom_value(summary.get(key))}"
            )
        lines.append(f"{metric}_sum {_prom_value(summary['total'])}")
        lines.append(f"{metric}_count {_prom_value(summary['count'])}")

    for seconds in windows:
        windowed = registry.windows_snapshot(seconds)
        label = f'window="{seconds:g}s"'
        for name, data in windowed["counters"].items():
            metric = _prom_name(name) + "_window"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(
                f'{metric}_count{{{label}}} {_prom_value(data["count"])}'
            )
            lines.append(
                f'{metric}_rate{{{label}}} {_prom_value(data["rate"])}'
            )
        for name, summary in windowed["histograms"].items():
            metric = _prom_name(name) + "_window"
            lines.append(f"# TYPE {metric} gauge")
            for quantile, key in _QUANTILES:
                lines.append(
                    f'{metric}{{{label},quantile="{quantile}"}} '
                    f"{_prom_value(summary.get(key))}"
                )
            lines.append(
                f'{metric}_count{{{label}}} {_prom_value(summary["count"])}'
            )
            lines.append(
                f'{metric}_qps{{{label}}} {_prom_value(summary["qps"])}'
            )

    if extra:
        for name, value in extra.items():
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(value)}")

    return "\n".join(lines) + "\n"


#: ``metric_name{labels} value`` — the sample shape we emit and accept.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)

_LABEL_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"$'
)


def parse_prometheus(text: str) -> dict:
    """Parse exposition-format *text*; raises ``ValueError`` on malformed
    lines.

    Returns ``{"samples": [{"name", "labels", "value"}...],
    "types": {family: type}}``.  Used by the tests to assert
    ``/metrics`` output is well-formed.
    """
    samples: list[dict] = []
    types: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE: {raw!r}")
            if parts[3] not in (
                "counter", "gauge", "summary", "histogram", "untyped"
            ):
                raise ValueError(
                    f"line {lineno}: unknown metric type {parts[3]!r}"
                )
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP or comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        labels: dict[str, str] = {}
        body = match.group("labels")
        if body:
            for pair in body.split(","):
                pair = pair.strip()
                label = _LABEL_RE.match(pair)
                if not label:
                    raise ValueError(
                        f"line {lineno}: malformed label {pair!r}"
                    )
                labels[label.group("key")] = label.group("value")
        value_text = match.group("value")
        if value_text == "NaN":
            value = float("nan")
        else:
            try:
                value = float(value_text)
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno}: malformed value {value_text!r}"
                ) from exc
        samples.append(
            {"name": match.group("name"), "labels": labels, "value": value}
        )
    return {"samples": samples, "types": types}


def health_document(probe) -> dict:
    """*probe*'s health dict.  A probe that raises is itself a health
    fact — ``{"status": "error", ...}``, served as 503 — never a reason
    to take the endpoint down."""
    try:
        return probe()
    except Exception as exc:
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def snapshot_document(
    registry: MetricsRegistry,
    health: dict,
    request_log: RequestLog | None,
    store_facts: dict,
) -> dict:
    """The ``/snapshot`` document ``python -m repro.obs.top`` renders:
    health, lifetime metrics, :data:`WINDOWS` windows, request-log
    stats and tail, and the store's static facts."""
    document = {
        "generated_at": time.time(),
        "health": health,
        "metrics": registry.snapshot(),
        "windows": {
            f"{seconds:g}s": registry.windows_snapshot(seconds)
            for seconds in WINDOWS
        },
        "server": store_facts,
    }
    if request_log is not None:
        document["requests"] = {
            "stats": request_log.stats(),
            "tail": request_log.tail(TAIL_EVENTS),
        }
    return document
