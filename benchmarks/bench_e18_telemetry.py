"""E18 — telemetry overhead and the live ops surface under load.

Two measurements over :class:`~repro.serve.ShardedStore`:

* **telemetry overhead** — the same warm doc-scoped query mix against
  two identically-loaded 4-shard stores, one bare and one carrying the
  full telemetry plane (tracer + windowed metrics + wide-event JSONL
  log + the gateway and its ops routes).  Queries are interleaved
  pair-by-pair so CPU frequency scaling and page-cache state hit both
  stores equally, and each side is summarized by its per-query
  *minimum* — the noise in a warm query is strictly additive, so the
  min is the clean estimate of intrinsic cost.  The acceptance gate: full telemetry adds ≤ 5% to
  the aggregate warm doc-scoped latency (best trial of three).
  "Warm" means plans, pooled connections and page cache — the
  statement still *executes*: both stores' result caches are dropped
  before every timed pair, outside the timed region.  A repeated read
  is otherwise a ≈ 50 µs result-cache hit, against which the plane's
  fixed ≈ 23 µs per request reads as 45 %; the budget is about the
  1–3 ms statement, where that cost must disappear.
* **ops surface under write load** — a write mix (subtree
  inserts/deletes) churns in the background while readers query; the
  gateway's ``/metrics`` route is scraped mid-load and must parse as
  Prometheus text exposition with windowed per-shard p99 samples, and
  ``/healthz`` must stay green.

Writes the machine-readable ``benchmarks/results/BENCH_PR7.json``
consumed by the CI ops-smoke job.
"""

import json
import os
import threading
import time
import urllib.request

from repro.bench import ExperimentResult, write_report
from repro.obs import RequestLog, Tracer, parse_prometheus
from repro.serve import ShardedStore
from repro.workloads import generate_auction
from repro.xml.parser import parse_fragment

from benchmarks.conftest import SEED

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_PR7.json"
)

SCHEME = "interval"
SHARDS = 4
DOCUMENTS = 4
#: Paper-scale auction documents: warm doc-scoped queries land in the
#: 1–3 ms range, where the telemetry plane's fixed per-request cost
#: (a few tens of microseconds) must disappear into the noise floor.
SCALE = 1.0

#: Doc-scoped query shapes of the auction workload.
DOC_QUERIES = (
    "/site/people/person/name",
    "/site/open_auctions/open_auction/bidder/increase",
    "//item/name",
)

INTERLEAVED_PAIRS = 200
TRIALS = 3
OVERHEAD_BUDGET = 1.05

FRAGMENT = "<person><name>Load Test</name></person>"
WRITE_CYCLES = 30


def _load_store(directory, document, **kwargs):
    store = ShardedStore.open(
        directory,
        scheme=SCHEME,
        shards=SHARDS,
        placement="round_robin",
        pool_size=8,
        max_in_flight=64,
        **kwargs,
    )
    doc_ids = store.store_many(
        [document] * DOCUMENTS,
        names=[f"auction-{i}" for i in range(DOCUMENTS)],
    )
    return store, doc_ids


def _interleaved_minimums(base, base_ids, full, full_ids, xpath):
    """Per-store minimum warm latency over interleaved query pairs."""
    base_min = full_min = float("inf")
    for i in range(INTERLEAVED_PAIRS):
        for store in (base, full):
            for pool in store.pools.values():
                pool.bump_data_version()  # the pair executes, not hits
        t0 = time.perf_counter()
        base.query_pres(base_ids[i % DOCUMENTS], xpath)
        t1 = time.perf_counter()
        full.query_pres(full_ids[i % DOCUMENTS], xpath)
        t2 = time.perf_counter()
        base_min = min(base_min, t1 - t0)
        full_min = min(full_min, t2 - t1)
    return base_min, full_min


def _overhead_phase(tmp_path, document):
    base, base_ids = _load_store(os.path.join(tmp_path, "bare"), document)
    tracer = Tracer()
    request_log = RequestLog(
        capacity=4096, path=os.path.join(tmp_path, "events.jsonl")
    )
    full, full_ids = _load_store(
        os.path.join(tmp_path, "telemetry"),
        document,
        tracer=tracer,
        request_log=request_log,
    )
    full.serve_gateway()
    try:
        # Warm both stores: plan caches, pool connections, page cache.
        for xpath in DOC_QUERIES:
            for i in range(DOCUMENTS):
                base.query_pres(base_ids[i], xpath)
                full.query_pres(full_ids[i], xpath)

        trials = []
        for _ in range(TRIALS):
            per_query = {}
            for xpath in DOC_QUERIES:
                b, f = _interleaved_minimums(
                    base, base_ids, full, full_ids, xpath
                )
                per_query[xpath] = {
                    "base_us": b * 1e6,
                    "telemetry_us": f * 1e6,
                    "delta_us": (f - b) * 1e6,
                    "ratio": f / b,
                }
            base_total = sum(q["base_us"] for q in per_query.values())
            full_total = sum(
                q["telemetry_us"] for q in per_query.values()
            )
            trials.append({
                "per_query": per_query,
                "aggregate_ratio": full_total / base_total,
                "aggregate_delta_us": full_total - base_total,
            })
        events = full.request_log.stats()
    finally:
        base.close()
        full.close()
    best = min(t["aggregate_ratio"] for t in trials)
    return {
        "trials": trials,
        "best_aggregate_ratio": best,
        "budget_ratio": OVERHEAD_BUDGET,
        "wide_events": events,
    }


def _write_loop(store, doc_ids, done, stats):
    try:
        for cycle in range(WRITE_CYCLES):
            doc_id = doc_ids[cycle % len(doc_ids)]
            parent = store.query_pres(doc_id, "/site/people")[0]
            store.insert_subtree(
                doc_id, parent, parse_fragment(FRAGMENT), index=0
            )
            stats["inserts"] += 1
            victim = store.query_pres(doc_id, "/site/people/person")[0]
            store.delete_subtree(doc_id, victim)
            stats["deletes"] += 1
    finally:
        done.set()


def _scrape(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


def _ops_under_write_load(tmp_path, document):
    tracer = Tracer()
    request_log = RequestLog(
        capacity=4096, path=os.path.join(tmp_path, "load-events.jsonl")
    )
    store, doc_ids = _load_store(
        os.path.join(tmp_path, "load"),
        document,
        tracer=tracer,
        request_log=request_log,
    )
    server = store.serve_gateway()
    stats = {"inserts": 0, "deletes": 0}
    done = threading.Event()
    writer = threading.Thread(
        target=_write_loop, args=(store, doc_ids, done, stats),
        daemon=True,
    )
    try:
        writer.start()
        reads = 0
        scrapes = []
        while not done.is_set():
            store.query_pres(
                doc_ids[reads % DOCUMENTS],
                DOC_QUERIES[reads % len(DOC_QUERIES)],
            )
            reads += 1
            if reads % 20 == 0:
                status, body = _scrape(server.url + "/metrics")
                assert status == 200
                scrapes.append(parse_prometheus(body))
        # One final mid-state scrape plus the health verdict.
        status, body = _scrape(server.url + "/metrics")
        assert status == 200
        scrapes.append(parse_prometheus(body))
        health_status, health_body = _scrape(server.url + "/healthz")
        health = json.loads(health_body)
        log_stats = store.request_log.stats()
    finally:
        done.set()
        writer.join(30)
        store.close()

    last = scrapes[-1]
    windowed_p99 = [
        s for s in last["samples"]
        if "shard" in s["name"]
        and s["labels"].get("window") == "60s"
        and s["labels"].get("quantile") == "0.99"
        and s["value"] > 0
    ]
    return {
        "reads": reads,
        "writer": stats,
        "scrapes": len(scrapes),
        "samples_last_scrape": len(last["samples"]),
        "windowed_shard_p99_series": len(windowed_p99),
        "healthz_status": health["status"],
        "healthz_http": health_status,
        "request_log": log_stats,
    }, health


def test_e18_telemetry(tmp_path):
    tmp_path = str(tmp_path)
    document = generate_auction(SCALE, seed=SEED)
    overhead = _overhead_phase(tmp_path, document)
    load, health = _ops_under_write_load(tmp_path, document)

    result = ExperimentResult(
        experiment="E18",
        title="Telemetry plane overhead and live ops surface",
        workload=(
            f"auction sf={SCALE} x{DOCUMENTS} docs; {SHARDS}-shard "
            f"store; interleaved warm doc-scoped queries; subtree "
            f"write mix under /metrics scrapes"
        ),
        expectation=(
            "full telemetry (tracer + windows + wide events + gateway "
            "ops routes) adds <= 5% to warm doc-scoped latency; "
            "/metrics stays a valid Prometheus exposition with "
            "windowed per-shard p99s while writes churn"
        ),
    )
    best_trial = min(
        overhead["trials"], key=lambda t: t["aggregate_ratio"]
    )
    for xpath, row in best_trial["per_query"].items():
        result.add_row(
            xpath,
            base_us=round(row["base_us"], 1),
            telemetry_us=round(row["telemetry_us"], 1),
            overhead_pct=round((row["ratio"] - 1.0) * 100.0, 2),
        )
    result.add_row(
        "aggregate (best of trials)",
        overhead_pct=round(
            (overhead["best_aggregate_ratio"] - 1.0) * 100.0, 2
        ),
        delta_us=round(best_trial["aggregate_delta_us"], 1),
    )
    result.add_row(
        "ops under write load",
        reads=load["reads"],
        writes=load["writer"]["inserts"] + load["writer"]["deletes"],
        scrapes=load["scrapes"],
        shard_p99_series=load["windowed_shard_p99_series"],
    )
    write_report(result)

    payload = {
        "experiment": "E18",
        "scheme": SCHEME,
        "shards": SHARDS,
        "documents": DOCUMENTS,
        "scale": SCALE,
        "interleaved_pairs": INTERLEAVED_PAIRS,
        "trials": TRIALS,
        "overhead": overhead,
        "write_load": load,
    }
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    # Acceptance: telemetry-on overhead within budget on the warm path.
    assert overhead["best_aggregate_ratio"] <= OVERHEAD_BUDGET, (
        f"telemetry overhead "
        f"{(overhead['best_aggregate_ratio'] - 1) * 100:.2f}% exceeds "
        f"{(OVERHEAD_BUDGET - 1) * 100:.0f}% budget"
    )
    # The live surface held up while writes churned.
    assert load["healthz_http"] == 200
    assert health["status"] == "ok"
    assert load["windowed_shard_p99_series"] >= 1
    assert all(
        shard["status"] in ("ok", "busy") for shard in health["shards"]
    )
