"""``repro.obs`` — zero-dependency observability for the engine.

The package instruments the whole store/translate/execute pipeline:

* :class:`Tracer` / :class:`Span` — hierarchical spans with monotonic
  timings (:mod:`repro.obs.trace`),
* :class:`MetricsRegistry` — counters, gauges, and percentile
  histograms (:mod:`repro.obs.metrics`),
* exporters — human-readable span tree, JSON Lines, Chrome trace
  (:mod:`repro.obs.export`),
* :class:`QueryReport` / :class:`Explanation` — per-query cost records
  (:mod:`repro.obs.report`),
* :class:`WindowRing` — O(1)-memory sliding-window aggregation behind
  ``Histogram.window()`` / ``Counter.rate()`` (:mod:`repro.obs.window`),
* :class:`RequestContext` — cross-thread trace propagation
  (``tracer.capture()`` / ``tracer.adopt()``; :mod:`repro.obs.trace`),
* :class:`RequestLog` — bounded non-blocking wide-event sink
  (:mod:`repro.obs.events`),
* :func:`to_prometheus` / :func:`parse_prometheus` and the health and
  snapshot document builders (:mod:`repro.obs.ops`) — what the
  gateway's ``/metrics`` + ``/snapshot`` + ``/healthz`` routes serve,
  with ``python -m repro.obs.top`` as the matching terminal dashboard.

Quickstart::

    from repro import XmlRelStore
    from repro.obs import Tracer, format_span_tree

    tracer = Tracer(slow_query_threshold=0.05)
    with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
        doc_id = store.store_text("<bib><book/></bib>")
        store.query_pres(doc_id, "//book")
    print(format_span_tree(tracer))
    print(tracer.metrics.snapshot_json(indent=2))
"""

from repro.obs.events import RequestLog
from repro.obs.export import (
    format_span_tree,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshot,
)
from repro.obs.ops import parse_prometheus, to_prometheus
from repro.obs.report import Explanation, QueryReport
from repro.obs.trace import NULL_TRACER, RequestContext, Span, Tracer
from repro.obs.window import WindowRing

__all__ = [
    "Counter",
    "Explanation",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "QueryReport",
    "RequestContext",
    "RequestLog",
    "Span",
    "Tracer",
    "WindowRing",
    "format_span_tree",
    "load_snapshot",
    "parse_prometheus",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
    "write_chrome_trace",
    "write_jsonl",
]
