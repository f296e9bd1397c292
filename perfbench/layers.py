"""The traced run: one layer table per workload, measured from outside.

``run_lab`` builds the workload's corpus shape, then times calls into
each layer's **public** functions from this file — perfbench's own
stopwatches (:mod:`perfbench.spans`) around ``parse_json_body``,
``parse_xpath``, ``ClientQuotas.try_admit``, ``ShardMap.resolve``,
``ConnectionPool.acquire``, ``translator().plans_for``, ``db.query``,
``QueryExecutor.query`` / ``.stream``, ``ndjson_line(result_body(...))``,
``parse_events``, ``parse_document``, ``shred_into``, ``store_stream``,
the bulk-session exit, ``store_corpus``, ``insert_subtree`` /
``delete_subtree``, ``fetch_records_many``, ``reconstruct_subtrees``,
``serialize``.  Counts come from surfaces the program already exposes
(``gateway.snapshot()``, ``store.metrics.snapshot()``, ``pool.stats()``).

The same procedure runs for every workload, so every layer metric has
a measured value on every workload; what the workload decides is the
corpus shape (document count and size), the request mix replayed over
HTTP and in-process, and whether the writer runs under the reads.
Spans stay in memory and are written once, at the end (``--spans``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, wait

from repro import (
    ShardedStore,
    UnsupportedQueryError,
    XmlRelStore,
    parse_document,
    parse_fragment,
    parse_xpath,
    serialize,
)
from repro import updates as embedded_updates
from repro.relational.sql import bind_doc_id
from repro.serve.gateway import ClientQuotas
from repro.serve.protocol import ndjson_line, parse_json_body, result_body
from repro.storage.numbering import shred_into
from repro.workloads import AUCTION_QUERIES, auction_dtd
from repro.xml.events import parse_events
from repro.xml.parser import ParseOptions

from perfbench import corpus as corpus_module, spec, stats, workloads
from perfbench.driver import closed_loop, open_slices
from perfbench.spans import SpanRecorder

#: (documents, scale) of the lab corpus per workload: the serving
#: workloads keep their own shape, ``bulk_ingest`` fewer and larger
#: documents, ``embedded_schemes`` its document size.
LAB_SHAPES = {
    "point_read": (16, 0.2),
    "scatter_read": (16, 0.2),
    "mixed_rw": (16, 0.2),
    "bulk_ingest": (4, 0.7),
    "embedded_schemes": (4, 0.5),
}

_KEEP_WS = ParseOptions(keep_whitespace=True)
REPLAY_REQUESTS = 240
SCATTER_PROBES = 24
UPDATE_PAIRS = 6


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


def _mb(byte_count: int) -> float:
    return byte_count / 1e6


class Lab:
    def __init__(self, name, seed, seconds, sizes, workdir) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.recorder = SpanRecorder()
        self.result = workloads.Result(name, seed, seconds)
        self.metrics: dict[str, tuple[float, int]] = {}
        documents, scale = LAB_SHAPES[name]
        if not sizes.full:
            documents, scale = min(documents, 4), min(scale, 0.05)
        self.corpus = corpus_module.build_serve_corpus(
            seed, documents, scale, with_writes=True
        )
        self.fragment = parse_fragment(corpus_module.FRAGMENT_XML)
        mix = name if name in spec.SERVE_WORKLOADS else "point_read"
        self.mix = workloads.WORKLOAD_CLASSES[mix](seed, sizes, workdir)
        self.mix.with_writes = True
        self.mix.corpus = self.corpus
        self.writes_under_reads = name == "mixed_rw"
        self.fanout: list[float] = []
        self.stream_first: list[float] = []
        self.executor_own: list[float] = []
        self.encoded_bytes: list[int] = []
        self.joins: dict[str, int] = {}
        #: Quotas as the served gateway has them by default: off.
        self.quotas = ClientQuotas(None)

    def put(self, name: str, value: float, count: int = 1) -> None:
        self.metrics[name] = (float(value), int(count))

    def check(self, ok: bool) -> None:
        self.result.attempted += 1
        if not ok:
            self.result.failed += 1

    # -- ingest layers ------------------------------------------------------------

    def ingest_layers(self) -> str:
        """Parse, shred, insert, finish, and the 1- vs 4-shard corpus
        load; returns the directory of the loaded 4-shard store."""
        span = self.recorder.span
        texts = self.corpus.texts
        total = self.corpus.xml_bytes

        started = time.perf_counter()
        with span("xml.stream.parse"):
            for text in texts:
                for _event in parse_events(text, _KEEP_WS):
                    pass
        parse_seconds = time.perf_counter() - started
        self.put("xml.stream.parse_mb_s", _mb(total) / parse_seconds,
                 len(texts))

        # The DOM parser is several times slower per byte: a prefix.
        dom_texts, dom_bytes = [], 0
        for text in texts:
            dom_texts.append(text)
            dom_bytes += len(text.encode("utf-8"))
            if dom_bytes > 600_000:
                break
        started = time.perf_counter()
        with span("xml.parser.parse"):
            for text in dom_texts:
                parse_document(text, _KEEP_WS)
        self.put(
            "xml.parser.parse_mb_s",
            _mb(dom_bytes) / (time.perf_counter() - started),
            len(dom_texts),
        )

        def sink(record, content):
            return None

        started = time.perf_counter()
        with span("numbering.shred"):
            for text in texts:
                shred_into(parse_events(text, _KEEP_WS), sink)
        shred_seconds = time.perf_counter() - started - parse_seconds
        self.put(
            "numbering.shred_mb_s",
            _mb(total) / max(shred_seconds, 1e-9), len(texts),
        )
        self.per_byte_parse_shred = (parse_seconds + shred_seconds) / total

        # Bulk-session exit (index rebuild + commit + ANALYZE) on a
        # file-backed durable store; kept open for the update probes.
        self.embedded = XmlRelStore.open(
            os.path.join(self.workdir.fresh("embedded"), "store.db"),
            scheme="interval", profile="durable",
        )
        session = self.embedded.bulk_session()
        session.__enter__()
        for text, name in zip(texts, self.corpus.names):
            session.store_stream(parse_events(text, _KEEP_WS), name)
        started = time.perf_counter()
        with span("storage.finish"):
            session.__exit__(None, None, None)
        self.put("storage.finish_s", time.perf_counter() - started)
        self.embedded_doc_ids = session.doc_ids

        rates = {}
        for shards in (1, workloads.SHARDS):
            directory = self.workdir.fresh(f"lab-store-{shards}")
            store = ShardedStore.open(
                directory, scheme="interval", shards=shards,
                placement="round_robin", profile="durable",
            )
            with store:
                started = time.perf_counter()
                with span(f"sharded.store_corpus.{shards}"):
                    doc_ids = store.store_corpus(
                        texts, names=self.corpus.names
                    )
                rates[shards] = _mb(total) / (time.perf_counter() - started)
            if shards == 1:
                self.one_shard = (directory, doc_ids)
        self.put(
            "sharded.corpus_speedup", rates[workloads.SHARDS] / rates[1]
        )
        self.mix.doc_ids = doc_ids
        self.mix._bind_expected()
        return directory

    # -- over the wire ------------------------------------------------------------

    def wire(self, directory: str) -> None:
        """Child serves the lab store; replay the mix over HTTP on one
        connection, a short open loop, the write stream; read the
        program's own counters."""
        mix = self.mix
        child = mix.child = workloads.ChildProcess()
        child.call("open", directory=directory, shards=workloads.SHARDS)
        mix.address = ("127.0.0.1", child.call("serve")["port"])
        mix.warm_up()
        replay_seconds = max(1.0, self.seconds / 4.0)
        pairs = [
            [mix.doc_ids[doc], self.corpus.people_pre[doc]]
            for doc in corpus_module.write_schedule(
                self.seed, len(mix.doc_ids), 64
            )
        ]

        def start_writer():
            child.call(
                "writer_start", rate=workloads.WRITE_RATE, pairs=pairs,
                fragment=corpus_module.FRAGMENT_XML,
            )

        if self.writes_under_reads:
            start_writer()
        cpu_before, wall_before = time.process_time(), time.perf_counter()
        samples = closed_loop(
            mix.address, mix.lanes(1), replay_seconds, mix.encode, mix.check
        )
        self.put(
            "driver.client_cpu_share",
            (time.process_time() - cpu_before)
            / (time.perf_counter() - wall_before),
        )
        if not self.writes_under_reads:
            start_writer()
            time.sleep(1.0)
        written = child.call("writer_stop")
        for sample in samples:
            self.check(sample.ok)
        self.check(written["finished"] and not written["errors"])
        latencies = [_ms(s.done - s.sent) for s in samples if s.ok]
        self.http_p50_ms = stats.median(latencies)
        self.put("gateway.http_p50_ms", self.http_p50_ms, len(latencies))
        level, value = stats.tail(latencies, cap=99.0)
        self.put("gateway.latency_p99_ms", value, len(latencies))
        self.result.notes["gateway_tail_level"] = level
        # The same mix on every connection the driver may hold: what
        # a request waits behind the other connection's request (one
        # GIL serves both) is no layer's self time, so it gets a name.
        crowded = closed_loop(
            mix.address, mix.lanes(workloads.CONNECTIONS, offset=2000),
            max(1.0, self.seconds / 8.0), mix.encode, mix.check,
        )
        for sample in crowded:
            self.check(sample.ok)
        self.crowded_p50_ms = stats.median(
            [_ms(s.done - s.sent) for s in crowded if s.ok]
        )
        self.put(
            "gateway.queue_wait_ms", self.crowded_p50_ms - self.http_p50_ms,
            len(crowded),
        )

        arrivals = corpus_module.open_loop_requests(
            self.seed,
            max(20, int(workloads.OPEN_LOOP_RATE * self.seconds / 6.0)),
        )
        opened = workloads.punctual_open_loop(
            self.result,
            lambda: open_slices(
                mix.address, arrivals, workloads.OPEN_LOOP_RATE,
                workloads.CONNECTIONS, len(arrivals), mix.encode, mix.check,
            ),
            self.sizes.open_attempts,
        )
        for sample in opened[0].samples:
            self.check(sample.ok)
        self.put(
            "driver.sched_slip_p99_ms",
            self.result.notes["sched_slip_p99_ms"],
            self.result.notes["sched_slip_n"],
        )

        counters = child.call("stats")
        gateway = counters["gateway"]["metrics"]["counters"]
        ok_count = sum(
            count for name, count in gateway.items()
            if name.startswith("gateway.status.2")
        )
        other = sum(
            count for name, count in gateway.items()
            if name.startswith("gateway.status.")
        ) - ok_count
        self.put("gateway.status_2xx", ok_count)
        self.put("gateway.status_other", other)
        store_counters = counters["metrics"]["counters"]
        self.put("executor.shed", store_counters.get("serve.overloaded", 0))
        pools = counters["pools"].values()
        hits = sum(pool["plan_cache"]["hits"] for pool in pools)
        misses = sum(pool["plan_cache"]["misses"] for pool in pools)
        self.put(
            "plancache.hit_ratio", hits / max(1, hits + misses),
            hits + misses,
        )
        self.put(
            "plancache.evictions",
            sum(pool["plan_cache"]["evictions"] for pool in pools),
        )
        self.put("pool.epoch_bumps", sum(pool["epoch"] for pool in pools))
        for metric, suffix in (
            ("pool.acquires", ".acquires"), ("pool.recycles", ".recycled"),
        ):
            self.put(
                metric,
                sum(
                    count for name, count in store_counters.items()
                    if name.startswith("pool.") and name.endswith(suffix)
                ),
            )
        mix.teardown()

    # -- in-process replay --------------------------------------------------------

    def _targets(self, store, request):
        if request.doc is not None:
            record = store.shard_map.resolve(self.mix.doc_ids[request.doc])
            return {record.shard: [(record.doc_id, record.local_doc_id)]}
        return {
            shard: store.shard_map.docs_for_shard(shard)
            for shard in store.pools
        }

    def _replay_one(self, store, index, request, recorder) -> float:
        """The gateway's steps for one request, as direct calls, one
        span per layer; returns the whole-request seconds."""
        span = recorder.span
        mix = self.mix
        body = mix.encode(request)
        started = time.perf_counter()
        with span("request", request=index):
            with span("protocol.parse"):
                parsed = parse_json_body(body, "perfbench")
            with span("xpath.parse"):
                parse_xpath(parsed.xpath)
            with span("gateway.admit"):
                self.quotas.try_admit(parsed.client)
            with span("shardmap.resolve"):
                targets = self._targets(store, request)
            kind = "single" if len(targets) == 1 else "scatter"
            with span(f"executor.query.{kind}"):
                answer = store.executor.query(parsed.xpath, targets)
            with span("protocol.encode"):
                # what Gateway._respond_json sends as the body
                encoded = ndjson_line(result_body(answer, "perfbench"))
        elapsed = time.perf_counter() - started
        if recorder.enabled:
            self.encoded_bytes.append(len(encoded))
            rows = [list(row) for row in answer.rows]
            self.check(
                any(rows == accepted for accepted in mix.expected(request))
            )
        return elapsed

    def _direct(self, store, doc_index: int, klass: str, cold: bool):
        """What ``executor.query`` does for one document, as direct
        calls into pool, translator and database."""
        span = self.recorder.span
        xpath = corpus_module.MIX[klass]
        record = store.shard_map.resolve(self.mix.doc_ids[doc_index])
        pool = store.pools[record.shard]
        whole = 0.0
        if not cold:
            started = time.perf_counter()
            with span("executor.single"):
                store.executor.query(
                    xpath,
                    {record.shard: [(record.doc_id, record.local_doc_id)]},
                )
            whole = time.perf_counter() - started
        started = time.perf_counter()
        with span("pool.acquire"):
            session = pool.acquire()
        try:
            translator = session.scheme.translator()
            if cold:
                session.db.plan_cache.clear()
                name = f"query.translate_cold.{klass}"
            else:
                name = "query.translate_warm"
            with span(name):
                plans, _hit = translator.plans_for(
                    record.local_doc_id, xpath
                )
            rows = []
            with span(f"execute.{klass}"):
                for plan in plans:
                    rows.extend(
                        session.db.query(
                            plan.sql,
                            bind_doc_id(plan.params, record.local_doc_id),
                        )
                    )
            wrapped = time.perf_counter() - started
        finally:
            pool.release(session)
        if not cold:
            # The executor's own time: its call minus the pool,
            # translator and database work it wraps.
            self.executor_own.append(whole - wrapped)
        self.check(
            [row[0] for row in rows]
            == self.corpus.before[doc_index].answers[xpath]
        )
        return sum(plan.join_count for plan in plans)

    def in_process(self, directory: str) -> None:
        recorder = self.recorder
        span = recorder.span
        lane = self.mix.lanes(1)[0]
        requests = [next(lane) for _ in range(REPLAY_REQUESTS)]
        store = ShardedStore.open(
            directory, scheme="interval", shards=workloads.SHARDS,
            placement="round_robin", profile="durable",
        )
        with store:
            # Each request runs untraced and traced back to back,
            # in alternating order: this sandbox's clock speed drifts
            # by tens of percent between whole passes, so only the
            # paired difference isolates what the spans cost.
            silent = SpanRecorder(enabled=False)
            for index, request in enumerate(requests):
                self._replay_one(store, index, request, silent)
            untraced, extra = [], []
            for index, request in enumerate(requests):
                order = (silent, recorder) if index % 2 else (recorder, silent)
                pair = {
                    id(which): self._replay_one(store, index, request, which)
                    for which in order
                }
                untraced.append(pair[id(silent)])
                extra.append(pair[id(recorder)] - pair[id(silent)])
            self.put(
                "driver.trace_overhead_share",
                stats.median(extra) / stats.median(untraced), len(extra),
            )
            # Scatter probes and the direct (pool / translate /
            # execute) decomposition run on every workload, so each
            # layer has a value whatever the mix.
            classes = list(corpus_module.MIX)
            for probe in range(SCATTER_PROBES):
                xpath = corpus_module.MIX[classes[probe % len(classes)]]
                targets = {
                    shard: store.shard_map.docs_for_shard(shard)
                    for shard in store.pools
                }
                with span("scatter.probe"):
                    with span("executor.scatter"):
                        store.executor.query(xpath, targets)
                slowest = 0.0
                for shard, docs in targets.items():
                    started = time.perf_counter()
                    with span("executor.per_shard"):
                        store.executor.query(xpath, {shard: docs})
                    slowest = max(slowest, time.perf_counter() - started)
                self.fanout.append(slowest)
                started = time.perf_counter()
                with span("executor.stream_first"):
                    stream = store.executor.stream(xpath, targets)
                    wait(stream.futures, return_when=FIRST_COMPLETED)
                self.stream_first.append(time.perf_counter() - started)
                try:
                    for future in list(stream.futures):
                        stream.collect(future)
                finally:
                    stream.finish()
            documents = len(self.mix.doc_ids)
            for round_no in range(3):
                for position, klass in enumerate(classes):
                    doc = (round_no * len(classes) + position) % documents
                    with span("direct", request=position):
                        self._direct(store, doc, klass, cold=False)
                    with span("direct.cold", request=position):
                        self.joins[klass] = self._direct(
                            store, doc, klass, cold=True
                        )
            self.check(store.verify_ok())
        self._updates()

    def _updates(self) -> None:
        """``ShardedStore.insert_subtree`` / ``delete_subtree`` on the
        one-shard store against ``repro.updates`` on an embedded store
        of the same documents: equal rows to move, so the difference is
        what the sharded call adds (writer lock, outer transaction,
        epoch bump, observation)."""
        span = self.recorder.span
        directory, doc_ids = self.one_shard
        store = ShardedStore.open(
            directory, scheme="interval", shards=1,
            placement="round_robin", profile="durable",
        )
        sharded_ms, embedded_ms = [], []
        inserted_ms, deleted_ms, touched = [], [], 0
        scheme = self.embedded.scheme
        with store:
            for pair in range(UPDATE_PAIRS):
                doc = pair % len(doc_ids)
                parent = self.corpus.people_pre[doc]
                local = self.embedded_doc_ids[doc]

                def sharded_pair():
                    started = time.perf_counter()
                    with span("sharded.insert_subtree"):
                        store.insert_subtree(
                            doc_ids[doc], parent, self.fragment, 0
                        )
                    with span("sharded.delete_subtree"):
                        store.delete_subtree(doc_ids[doc], parent + 1)
                    sharded_ms.append(
                        _ms(time.perf_counter() - started) / 2
                    )

                def embedded_pair():
                    started = time.perf_counter()
                    with span("updates.insert"):
                        with self.embedded.db.transaction():
                            made = embedded_updates.insert_subtree(
                                scheme, local, parent, self.fragment, 0
                            )
                    middle = time.perf_counter()
                    with span("updates.delete"):
                        with self.embedded.db.transaction():
                            gone = embedded_updates.delete_subtree(
                                scheme, local, parent + 1
                            )
                    ended = time.perf_counter()
                    inserted_ms.append(_ms(middle - started))
                    deleted_ms.append(_ms(ended - middle))
                    embedded_ms.append(_ms(ended - started) / 2)
                    return made.rows_touched + gone.rows_touched

                # Alternate which side goes first: the second update
                # of a pair finds warmer caches.
                if pair % 2:
                    touched = embedded_pair()
                    sharded_pair()
                else:
                    sharded_pair()
                    touched = embedded_pair()
            self.check(store.verify_ok())
        self.embedded.close()
        self.put("updates.insert_ms", stats.median(inserted_ms),
                 UPDATE_PAIRS)
        self.put("updates.delete_ms", stats.median(deleted_ms), UPDATE_PAIRS)
        self.put("updates.rows_touched", touched)
        self.put(
            "sharded.write_overhead_ms",
            stats.median(sharded_ms) - stats.median(embedded_ms),
            UPDATE_PAIRS,
        )

    def layer_table(self) -> None:
        """Self times of the replay spans → the layer metrics."""
        selfs = self.recorder.self_times()

        def p50(name: str) -> float:
            return stats.median(selfs[name])

        self.put("protocol.parse_us", _us(p50("protocol.parse")),
                 len(selfs["protocol.parse"]))
        self.put("protocol.encode_ms", _ms(p50("protocol.encode")),
                 len(selfs["protocol.encode"]))
        self.put("protocol.encode_bytes", stats.median(self.encoded_bytes),
                 len(self.encoded_bytes))
        self.put("xpath.parse_us", _us(p50("xpath.parse")))
        self.put("gateway.admit_us", _us(p50("gateway.admit")))
        self.put("shardmap.resolve_us", _us(p50("shardmap.resolve")))
        self.put("pool.acquire_us", _us(p50("pool.acquire")),
                 len(selfs["pool.acquire"]))
        self.put("query.translate_warm_us", _us(p50("query.translate_warm")))
        for klass in corpus_module.MIX:
            self.put(f"query.translate_cold_ms.{klass}",
                     _ms(p50(f"query.translate_cold.{klass}")))
            self.put(f"query.join_count.{klass}", self.joins[klass])
            self.put(f"execute_ms.{klass}", _ms(p50(f"execute.{klass}")),
                     len(selfs[f"execute.{klass}"]))
        scatter = p50("executor.scatter")
        self.put("executor.single_ms", _ms(stats.median(self.executor_own)),
                 len(self.executor_own))
        self.put("executor.scatter_ms", _ms(scatter), SCATTER_PROBES)
        self.put(
            "executor.fanout_overhead_ms",
            _ms(scatter - stats.median(self.fanout)), SCATTER_PROBES,
        )
        self.put("executor.stream_first_ms",
                 _ms(stats.median(self.stream_first)), SCATTER_PROBES)
        # The replay's executor call is the workload's own (one target
        # or all shards); what HTTP adds to it is loop + dispatch
        # handoff + socket, on-loop parsing and encoding included.
        replay_kind = next(
            name for name in
            ("executor.query.single", "executor.query.scatter")
            if name in selfs
        )
        executor_ms = _ms(p50(replay_kind))
        self.put("gateway.overhead_ms", self.http_p50_ms - executor_ms)
        on_loop_ms = _ms(
            sum(
                p50(name) for name in (
                    "protocol.parse", "xpath.parse", "gateway.admit",
                    "shardmap.resolve", "protocol.encode",
                )
            )
        )
        # Share of the one-connection HTTP p50 that the separately
        # timed layer calls account for; the rest is socket, loop
        # scheduling and thread handoff, which no public call exposes.
        self.put(
            "driver.blocking_path_share",
            (on_loop_ms + executor_ms) / self.http_p50_ms,
        )
        self.result.notes["blocking_path_ms"] = {
            "on_loop": on_loop_ms, "executor": executor_ms,
            "socket_loop_handoff":
                self.http_p50_ms - executor_ms - on_loop_ms,
            "http_p50_one_connection": self.http_p50_ms,
            "queue_wait_behind_second_connection":
                self.crowded_p50_ms - self.http_p50_ms,
            "http_p50_two_connections": self.crowded_p50_ms,
        }

    # -- the seven schemes --------------------------------------------------------

    def schemes(self) -> None:
        span = self.recorder.span
        text = self.corpus.texts[0]
        size = len(text.encode("utf-8"))
        document = parse_document(text, _KEEP_WS)
        # First-call costs (lint and translator imports, sqlite
        # statement caches) belong to no scheme: pay them up front.
        with XmlRelStore.open(scheme="interval") as warm:
            warm_id = warm.store_stream(text)
            for query in AUCTION_QUERIES:
                warm.query_pres(warm_id, query.xpath)
        for scheme_name in spec.SCHEMES:
            kwargs = (
                {"dtd": auction_dtd()} if scheme_name == "inlining" else {}
            )
            store = XmlRelStore.open(
                scheme=scheme_name, profile="bulk_load", **kwargs
            )
            with store:
                started = time.perf_counter()
                with span(f"storage.store_stream.{scheme_name}"):
                    doc_id = store.store_stream(text)
                elapsed = time.perf_counter() - started
                insert = max(elapsed - self.per_byte_parse_shred * size, 1e-9)
                self.put(
                    f"storage.insert_mb_s.{scheme_name}", _mb(size) / insert
                )
                scheme = store.scheme
                translator = scheme.translator()
                store.clear_plan_cache()
                translate = execute = 0.0
                for query in AUCTION_QUERIES:
                    if query.key in spec.UNSUPPORTED.get(scheme_name, ()):
                        continue
                    started = time.perf_counter()
                    with span(f"query.translate_cold.{scheme_name}"):
                        plans, _hit = translator.plans_for(
                            doc_id, query.xpath
                        )
                    middle = time.perf_counter()
                    rows = []
                    with span(f"execute.{scheme_name}"):
                        for plan in plans:
                            rows.extend(
                                store.db.query(
                                    plan.sql,
                                    bind_doc_id(plan.params, doc_id),
                                )
                            )
                    execute += time.perf_counter() - middle
                    translate += middle - started
                    self.check(
                        sorted(row[0] for row in rows)
                        == corpus_module.pres(document, query.xpath)
                    )
                self.put(f"query.translate_cold_ms.{scheme_name}",
                         _ms(translate))
                self.put(f"execute_ms.{scheme_name}", _ms(execute))
                fetch = rebuild = render = 0.0
                for key, xpath in spec.RECONSTRUCT_QUERIES.items():
                    try:
                        pres = scheme.query_pres(doc_id, xpath)
                    except UnsupportedQueryError:
                        continue
                    started = time.perf_counter()
                    with span(f"storage.fetch.{scheme_name}"):
                        scheme.fetch_records_many(doc_id, pres)
                    fetched = time.perf_counter()
                    # reconstruct_subtrees fetches inside; timing it
                    # whole and a fetch alone gives its own share
                    # without reaching past the public call.
                    with span(f"storage.reconstruct.{scheme_name}"):
                        nodes = scheme.reconstruct_subtrees(doc_id, pres)
                    rebuilt = time.perf_counter()
                    with span(f"xml.serialize.{scheme_name}"):
                        fragments = [serialize(node) for node in nodes]
                    rendered = time.perf_counter()
                    fetch += fetched - started
                    rebuild += rebuilt - fetched
                    render += rendered - rebuilt
                    self.check(len(fragments) == len(pres))
                self.put(f"storage.fetch_ms.{scheme_name}", _ms(fetch))
                self.put(f"storage.reconstruct_ms.{scheme_name}",
                         _ms(rebuild))  # fetch included
                self.put(f"xml.serialize_ms.{scheme_name}", _ms(render))


def run_lab(name, seed, seconds, sizes=None, spans_path=None):
    """The traced run of workload *name* → ``(result, metrics)`` with
    every :data:`spec.PER_LAYER` metric present."""
    sizes = sizes or workloads.Sizes()
    with workloads.WorkDir() as workdir:
        lab = Lab(name, seed, seconds, sizes, workdir)
        try:
            directory = lab.ingest_layers()
            lab.wire(directory)
            lab.in_process(directory)
            lab.layer_table()
            lab.schemes()
        finally:
            lab.mix.teardown()
        if spans_path:
            lab.recorder.write(spans_path)
    lab.result.notes["spans"] = len(lab.recorder.spans)
    missing = sorted(set(spec.PER_LAYER) - set(lab.metrics))
    if missing:
        raise RuntimeError(f"layer table incomplete: {missing}")
    ordered = {name: lab.metrics[name] for name in spec.PER_LAYER}
    return lab.result, ordered
