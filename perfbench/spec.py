"""Names, units, directions and bounds: the benchmark's vocabulary.

Three tiers of metric:

* **end-to-end** — what a user of the system sees.  The PR driver's
  contract makes every run print *every* end-to-end metric, with one
  bound each and no way to say which workloads a metric belongs to,
  so this tier holds the quantities all five workloads produce (each
  workload's binding is in :data:`BINDINGS`).  ``BENCHMARK.json``
  repeats these names; ``tests/test_schema.py`` keeps the two in step.
* **primary** — the ISSUE's end-to-end quantities that only some
  workloads have (update latency, streamed first row, the latency
  tail, the per-scheme query suite and reconstruction).  Measured
  untraced on their own workload, written to the perfbench record and
  gated by ``perfbench compare`` with the bounds below; they cannot be
  driver metrics because a read-only workload has no honest value for
  an update latency.  ``query_suite_ms`` and ``reconstruct_ms`` reach
  the driver all the same: ``embedded_schemes`` binds the generic
  ``latency_p50_ms`` and ``throughput_rps`` to them.
* **layer** — one module's cost, measured by ``perfbench``'s own
  stopwatches around that module's public calls (``layers.py``).
  No bound.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 11

#: Length of one timed window, seconds (``BENCHMARK.json`` run_seconds).
RUN_SECONDS = 18

WORKLOADS: dict[str, str] = {
    "point_read": (
        "closed loop, 2 keep-alive connections, doc-scoped POST /query "
        "with a warm plan cache: gateway parse/admit/handoff/encode and "
        "pool acquire dominate"
    ),
    "scatter_read": (
        "no doc_id: open loop at 40 req/s (materialized/streamed "
        "alternating, timed from due time) then closed loop for "
        "capacity: fan-out, per-shard execute, merge, encode dominate"
    ),
    "mixed_rw": (
        "one closed-loop reader (value literals overflow the plan "
        "cache) while a writer thread inserts/deletes subtrees at 12/s: "
        "cache misses, the single-writer lock, interval renumbering"
    ),
    "bulk_ingest": (
        "fresh child process streams XML files from disk into an empty "
        "4-shard store through commit, index rebuild and ANALYZE, then "
        "reopens it and answers the first reads"
    ),
    "embedded_schemes": (
        "the seven mappings on an in-memory store: DOM load, Q1-Q16, "
        "three reconstructions; no sockets, threads or shards, so "
        "serving changes must not move it"
    ),
}

SERVE_WORKLOADS = ("point_read", "scatter_read", "mixed_rw")

#: The eight query classes of the serving mix: one fixed XPath each,
#: taken from ``repro.workloads.AUCTION_QUERIES`` by key.
QUERY_CLASSES: dict[str, str] = {
    "path": "Q2",
    "descendant": "Q4",
    "point": "Q7",
    "value": "Q8",
    "exists": "Q11",
    "position": "Q14",
    "string": "Q15",
    "text": "Q16",
}

SCHEMES = (
    "edge", "binary", "universal", "interval", "dewey", "xrel", "inlining",
)

#: Queries a scheme is *expected* to refuse; anything else refusing (or
#: one of these starting to answer) is a drift, not a number.
UNSUPPORTED: dict[str, frozenset[str]] = {
    "universal": frozenset({"Q13", "Q14", "R3"}),
    "xrel": frozenset({"Q13", "Q14", "R3"}),
}

#: The reconstruction set of ``embedded_schemes`` (``query_xml``).
RECONSTRUCT_QUERIES: dict[str, str] = {
    "R1": "/site/people/person",
    "R2": "//item",
    "R3": "/site/open_auctions/open_auction[1]",
}


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # allowed worsening, share of the base
    workloads: tuple[str, ...] = tuple(WORKLOADS)


#: A bound is the ISSUE's where the ten-seed tables taken on this sandbox
#: (``baseline/SPREAD_PR11.md``) put the metric's interquartile spread
#: within a third of it, as the driver contract asks; otherwise it is
#: about twice the widest spread seen on any workload, in steps of 5 %
#: and at most the contract's 25 %.
#: The driver refuses a benchmark whose spread exceeds its bound, one
#: bound covers all five workloads, and the widest timed spreads in a
#: slow hour are 10-13 % (``point_read`` and ``scatter_read`` latency
#: and throughput; twice that is the 25 %) - so 10 % is not on offer
#: for those, and demoting
#: ``latency_p50_ms`` to the layer table would leave no benchmark.
END_TO_END: dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25),
    "latency_p50_ms": Metric("ms", "lower", 0.25),
    "throughput_rps": Metric("1/s", "higher", 0.25),
    "ingest_mb_s": Metric("MB/s", "higher", 0.25),
    "stored_bytes_per_xml_byte": Metric("ratio", "lower", 0.01),
    "peak_rss_mb": Metric("MiB", "lower", 0.10),
}

PRIMARY: dict[str, Metric] = {
    "latency_p95_ms": Metric("ms", "lower", 0.25, SERVE_WORKLOADS),
    "first_row_p50_ms": Metric("ms", "lower", 0.25, ("scatter_read",)),
    "update_p50_ms": Metric("ms", "lower", 0.15, ("mixed_rw",)),
    "update_p95_ms": Metric("ms", "lower", 0.25, ("mixed_rw",)),
    "query_suite_ms": Metric("ms", "lower", 0.10, ("embedded_schemes",)),
    "reconstruct_ms": Metric("ms", "lower", 0.15, ("embedded_schemes",)),
    # failed / attempted; any rise fails ``compare`` (bound +0 absolute).
    "failed_share": Metric("ratio", "lower", 0.0),
}

#: What each end-to-end name means on each workload.
BINDINGS: dict[str, dict[str, str]] = {
    "setup_s": {
        w: "corpus generation + expected answers + open + load + "
           "warm-up: everything before the timed window"
        for w in WORKLOADS
    },
    "latency_p50_ms": {
        "point_read": "doc-scoped HTTP read, send to last byte",
        "scatter_read": "open-loop scatter read, due time to last byte",
        "mixed_rw": "doc-scoped HTTP read under the write stream",
        "bulk_ingest": "first doc-scoped reads on the reopened store",
        "embedded_schemes": "query_suite_ms per answered query: one "
                            "Q1-Q16 pass over the seven schemes",
    },
    "throughput_rps": {
        "point_read": "OK reads / s, 2 connections closed loop (median "
                      "over the one-second slices, as on the next two)",
        "scatter_read": "OK reads / s, closed-loop phase",
        "mixed_rw": "OK reads / s, 1 connection closed loop",
        "bulk_ingest": "OK first reads / s of read time (the mean, "
                       "cold first touches included, where p50 is not)",
        "embedded_schemes": "fragments rebuilt / s of reconstruct_ms",
    },
    "ingest_mb_s": {
        "point_read": "served corpus / setup_s (ingest happens in set-up only)",
        "scatter_read": "served corpus / setup_s (ingest happens in set-up only)",
        "mixed_rw": "served corpus / setup_s (ingest happens in set-up only)",
        "bulk_ingest": "store_corpus of the file corpus, streaming lane",
        "embedded_schemes": "store_text, DOM lane, bytes / seconds "
                            "summed over schemes",
    },
    "stored_bytes_per_xml_byte": {
        w: "store directory bytes after close / XML bytes"
        for w in WORKLOADS if w != "embedded_schemes"
    } | {
        "embedded_schemes": "storage_bytes() summed over schemes / "
                            "(7 x XML bytes)",
    },
    "peak_rss_mb": {w: "child process ru_maxrss" for w in WORKLOADS},
}


def _by_class(prefix: str, unit: str, better: str = "lower"):
    return {f"{prefix}.{c}": Metric(unit, better) for c in QUERY_CLASSES}


def _by_scheme(prefix: str, unit: str, better: str = "lower"):
    return {f"{prefix}.{s}": Metric(unit, better) for s in SCHEMES}


#: The layer table (traced run).  Layer = module; names are
#: ``<layer>.<quantity>[.<class|scheme>]``.
PER_LAYER: dict[str, Metric] = {
    # serve.protocol
    "protocol.parse_us": Metric("us", "lower"),
    "protocol.encode_ms": Metric("ms", "lower"),
    "protocol.encode_bytes": Metric("bytes", "lower"),
    # xpath
    "xpath.parse_us": Metric("us", "lower"),
    # serve.gateway
    "gateway.admit_us": Metric("us", "lower"),
    "gateway.http_p50_ms": Metric("ms", "lower"),
    "gateway.overhead_ms": Metric("ms", "lower"),
    "gateway.queue_wait_ms": Metric("ms", "lower"),
    "gateway.latency_p99_ms": Metric("ms", "lower"),
    "gateway.status_2xx": Metric("count", "higher"),
    "gateway.status_other": Metric("count", "lower"),
    # relational.shardmap
    "shardmap.resolve_us": Metric("us", "lower"),
    # serve.pool
    "pool.acquire_us": Metric("us", "lower"),
    "pool.acquires": Metric("count", "lower"),
    "pool.recycles": Metric("count", "lower"),
    "pool.epoch_bumps": Metric("count", "lower"),
    # query (translators)
    "query.translate_warm_us": Metric("us", "lower"),
    **_by_class("query.translate_cold_ms", "ms"),
    **_by_class("query.join_count", "count"),
    **_by_scheme("query.translate_cold_ms", "ms"),
    # relational.plancache
    "plancache.hit_ratio": Metric("ratio", "higher"),
    "plancache.evictions": Metric("count", "lower"),
    # relational.database
    **_by_class("execute_ms", "ms"),
    **_by_scheme("execute_ms", "ms"),
    # serve.executor
    "executor.single_ms": Metric("ms", "lower"),
    "executor.scatter_ms": Metric("ms", "lower"),
    "executor.fanout_overhead_ms": Metric("ms", "lower"),
    "executor.stream_first_ms": Metric("ms", "lower"),
    "executor.shed": Metric("count", "lower"),
    # storage + xml.serialize (reconstruction)
    **_by_scheme("storage.fetch_ms", "ms"),
    **_by_scheme("storage.reconstruct_ms", "ms"),
    **_by_scheme("xml.serialize_ms", "ms"),
    # xml / storage.numbering / storage (ingest)
    "xml.stream.parse_mb_s": Metric("MB/s", "higher"),
    "xml.parser.parse_mb_s": Metric("MB/s", "higher"),
    "numbering.shred_mb_s": Metric("MB/s", "higher"),
    **_by_scheme("storage.insert_mb_s", "MB/s", "higher"),
    "storage.finish_s": Metric("s", "lower"),
    "sharded.corpus_speedup": Metric("ratio", "higher"),
    # updates / serve.sharded
    "updates.insert_ms": Metric("ms", "lower"),
    "updates.delete_ms": Metric("ms", "lower"),
    "updates.rows_touched": Metric("count", "lower"),
    "sharded.write_overhead_ms": Metric("ms", "lower"),
    # driver health
    "driver.sched_slip_p99_ms": Metric("ms", "lower"),
    "driver.client_cpu_share": Metric("ratio", "lower"),
    "driver.trace_overhead_share": Metric("ratio", "lower"),
    "driver.blocking_path_share": Metric("ratio", "higher"),
}

def metric(name: str) -> Metric:
    for table in (END_TO_END, PRIMARY, PER_LAYER):
        if name in table:
            return table[name]
    raise KeyError(name)
