"""The ingest pipeline (streaming since PR 8, the only lane since PR 14).

Three layers of differential evidence, each against an independent
DOM-side algorithm as the oracle:

* the pull parser's event stream is *byte-identical* to
  ``stream_events(parse_document(text))`` — including every syntax
  error's message, line and column — at several read-chunk sizes;
* the event-stack shredder (:func:`shred_into`) delivers exactly the
  records of the recursive DOM walk (:func:`number_document`) and the
  content cache of :func:`element_content`;
* every store entry point (parsed document, text, event stream) leaves
  byte-identical tables, catalog rows and reconstruction output across
  **all seven schemes**, and the audit is clean.

Plus the bulk machinery around them: file/corpus ingestion, deferred
index rebuilds, and the ``ingest.*`` telemetry.
"""

import threading

import pytest

from repro.analysis.lockharness import LockWatcher, instrument_sharded_store
from repro.core.store import XmlRelStore
from repro.errors import StorageError, XmlRelError, XmlSyntaxError
from repro.obs.events import RequestLog
from repro.obs.trace import Tracer
from repro.reliability.faults import FaultInjected, ShardFaultPolicy
from repro.serve import ShardedStore
from repro.storage.base import BulkSession
from repro.storage.interval import element_content
from repro.storage.numbering import number_document, shred_into
from repro.workloads import (
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)
from repro.xml import parse_document, serialize
from repro.xml.events import Event, EventKind, parse_events, stream_events
from repro.xml.parser import ParseOptions
from repro.xml.stream import iter_events

from tests.conftest import shred_records

XML_SMALL = """<?xml version="1.0"?>
<!DOCTYPE bib [<!ENTITY co "Company">]>
<bib xmlns="urn:x">
  <book year="1994" id="b1"><title>TCP/IP &amp; &co;</title>
    <!-- a comment --><?proc data?>
    <price>65.95</price><empty/><ws>   </ws>
  </book>
  <book year="2000"><title><![CDATA[Data >> on ]] the Web]]></title></book>
</bib>"""

WELL_FORMED = [
    "<a/>",
    "<a>x</a>",
    '<a b="1" c="2"><d>t</d><!--c--><?pi d?></a>',
    "<r>" + "".join(f'<i k="{i}">v{i}</i>' for i in range(50)) + "</r>",
    "<a>x<![CDATA[ ]]> ]] ><b/>tail</a>",
    "<a>\n  <b>  </b>\n</a>",
    "<a>&amp;&lt;&#65;</a>",
    '<a x="&quot;q&apos;"/>',
    XML_SMALL,
]

MALFORMED = [
    '<a b="1" b="2"/>',
    "<a><b></c></a>",
    "<a><![CDATA[x]]",
    "<a>x",
    "<a><!--",
    "<a><?pi",
    "<a>&unknown;</a>",
    "<a",
    "<>",
    "<a></a><b/>",
    "<a>]]></a>",
    "<a b=1/>",
]

#: Chunk sizes that land refills mid-tag, mid-text and beyond EOF.
CHUNKS = (7, 64, 8192)

SCHEMES = ("interval", "dewey", "edge", "binary", "universal", "xrel",
           "inlining")


def _chunked_reader(text, chunk):
    """A file-like over *text* that returns *chunk* chars per read."""
    state = {"pos": 0}

    class _Reader:
        def read(self, count):
            start = state["pos"]
            state["pos"] = start + chunk
            return text[start:start + chunk]

    return _Reader()


# -- event-stream parity -----------------------------------------------------


@pytest.mark.parametrize("keep_ws", [False, True])
def test_events_match_dom_walk(keep_ws):
    options = ParseOptions(keep_whitespace=keep_ws)
    for text in WELL_FORMED:
        expected = list(
            stream_events(parse_document(text, options=options))
        )
        for chunk in CHUNKS:
            streamed = list(
                iter_events(_chunked_reader(text, chunk), options)
            )
            assert streamed == expected, (text, chunk)


def test_syntax_errors_match_dom_parser():
    """Same message, same line, same column — at every chunk size."""
    for text in MALFORMED:
        with pytest.raises(XmlSyntaxError) as dom_error:
            parse_document(text)
        for chunk in CHUNKS:
            with pytest.raises(XmlSyntaxError) as stream_error:
                list(iter_events(_chunked_reader(text, chunk)))
            assert str(stream_error.value) == str(dom_error.value), (
                text, chunk
            )


def test_text_source_and_path_source(tmp_path):
    text = WELL_FORMED[2]
    expected = list(stream_events(parse_document(text)))
    assert list(parse_events(text)) == expected
    path = tmp_path / "doc.xml"
    path.write_text(text, encoding="utf-8")
    assert list(parse_events(path)) == expected


# -- shredder parity ---------------------------------------------------------


def _corpora():
    return {
        "auction": (
            serialize(generate_auction(0.01, seed=42)), auction_dtd
        ),
        "dblp": (
            serialize(generate_dblp(record_count=40, seed=7)), dblp_dtd
        ),
        "small": (XML_SMALL, None),
    }


def test_shred_into_matches_number_document():
    """Two algorithms, one answer: the event-stack numbering against
    the recursive DOM walk, and the shredder's content cache against
    :func:`element_content`'s second pass over the records."""
    for label, (text, _) in _corpora().items():
        document = parse_document(text)
        reference = number_document(document)
        enters = []
        records, contents, count, root = shred_records(
            parse_events(text), lambda *entered: enters.append(entered)
        )
        assert records == reference, label
        assert contents == element_content(reference), label
        assert count == len(reference)
        assert root == document.root_element.tag
        # Element opens are announced in pre order, before their rows.
        assert enters == [
            (r.pre, r.name, r.parent_pre)
            for r in reference if r.is_element
        ], label


def test_shred_into_rejects_unbalanced_stream():
    events = list(parse_events("<a><b/></a>"))[:-2]  # drop END a + doc
    with pytest.raises(StorageError):
        shred_into(events, lambda record, content: None)


def _start(name):
    return Event(EventKind.START_ELEMENT, name)


def _end(name):
    return Event(EventKind.END_ELEMENT, name)


#: Event streams no parser emits but a caller can hand to store_stream.
HOSTILE_STREAMS = {
    "end with nothing open": (
        [_start("a"), _end("a"), _end("a")], "nothing open"
    ),
    "end names another element": (
        [_start("a"), _start("b"), _end("a"), _end("b")],
        "does not match",
    ),
    "attribute after first child": (
        [_start("a"), Event(EventKind.TEXT, None, "x"),
         Event(EventKind.ATTRIBUTE, "k", "v"), _end("a")],
        "after the first child",
    ),
}


@pytest.mark.parametrize("case", HOSTILE_STREAMS)
def test_shred_into_rejects_hostile_stream(case):
    events, message = HOSTILE_STREAMS[case]
    with pytest.raises(StorageError, match=message):
        shred_into(events, lambda record, content: None)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("case", HOSTILE_STREAMS)
def test_store_stream_rejects_hostile_stream(scheme, case):
    """Typed error, whole transaction rolled back: no node row and no
    catalog row survives."""
    events, message = HOSTILE_STREAMS[case]
    kwargs = {"dtd": dblp_dtd()} if scheme == "inlining" else {}
    with XmlRelStore.open(scheme=scheme, **kwargs) as store:
        before = _dump_tables(store)
        with pytest.raises(StorageError, match=message):
            store.scheme.store_stream(iter(events), "hostile")
        assert store.documents() == []
        assert _dump_tables(store) == before
        assert store.db.query("SELECT * FROM xmlrel_documents") == []


# -- whole-store differential: every entry point, all schemes ----------------


def _dump_tables(store):
    def key(row):
        return tuple((value is None, value) for value in row)

    return {
        table: sorted(
            store.db.query(f"SELECT * FROM {table}"), key=key
        )
        for table in sorted(store.scheme.table_names())
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stream_store_tables_identical_to_dom(scheme):
    """``store(parse_document(xml))``, ``store_text(xml)`` and
    ``store_stream(parse_events(xml))`` are one lane behind three
    doors: same tables, same catalog row, same reconstruction, clean
    audit.  (What the rows must *be* is pinned by the evaluator
    differentials that run on every scheme.)"""
    for label, (xml, dtd_factory) in _corpora().items():
        if scheme == "inlining" and dtd_factory is None:
            continue
        kwargs = (
            {"dtd": dtd_factory()} if scheme == "inlining" else {}
        )
        doors = {
            "document": lambda s: s.store(parse_document(xml), "doc"),
            "text": lambda s: s.store_text(xml, "doc"),
            "events": lambda s: s.scheme.store_stream(
                parse_events(xml), "doc"
            ).doc_id,
        }
        outcomes = {}
        for door, run in doors.items():
            with XmlRelStore.open(scheme=scheme, **kwargs) as store:
                doc_id = run(store)
                report = store.verify(doc_id)
                assert report.ok, (scheme, label, door, report.issues)
                outcomes[door] = (
                    doc_id,
                    _dump_tables(store),
                    store.db.query("SELECT * FROM xmlrel_documents"),
                    store.reconstruct_xml(doc_id),
                )
        reference = outcomes.pop("document")
        for door, outcome in outcomes.items():
            assert outcome == reference, (scheme, label, door)


# -- file and corpus ingestion -----------------------------------------------


def test_store_file_streams_and_round_trips(tmp_path):
    text = serialize(generate_auction(0.01, seed=3))
    path = tmp_path / "auction.xml"
    path.write_text(text, encoding="utf-8")
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        doc_id = store.store_file(str(path), name="auction")
        assert store.reconstruct_xml(doc_id) == serialize(
            parse_document(text)
        )


def test_store_file_wraps_io_errors(tmp_path):
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        with pytest.raises(XmlRelError, match="cannot read XML file"):
            store.store_file(str(tmp_path / "missing.xml"))
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<a>\xff\xfe</a>")
        with pytest.raises(XmlRelError):
            store.store_file(str(bad))


def test_store_corpus_parallel_load(tmp_path):
    texts = [
        serialize(generate_auction(0.01, seed=50 + i)) for i in range(6)
    ]
    names = [f"auction-{i}" for i in range(len(texts))]
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=3,
        placement="round_robin",
    ) as store:
        doc_ids = store.store_corpus(texts, names=names)
        assert len(doc_ids) == len(texts)
        # Ids come back in input order and resolve to the right bytes.
        for doc_id, text in zip(doc_ids, texts):
            assert serialize(store.reconstruct(doc_id)) == serialize(
                parse_document(text)
            )
        counts = store.shard_counts()
        assert sum(counts.values()) == len(texts)
        assert all(count > 0 for count in counts.values())
        # The ingest instruments saw the load.
        snapshot = store.metrics.snapshot()
        assert snapshot["counters"]["ingest.documents"] == len(texts)
        assert snapshot["counters"]["ingest.rows"] > 0
        assert "ingest.queue_depth" not in snapshot["gauges"]
        shard_histograms = [
            name
            for name in snapshot["histograms"]
            if name.startswith("ingest.shard")
        ]
        assert len(shard_histograms) == 3


def test_store_corpus_mixed_payloads(tmp_path):
    text = serialize(generate_auction(0.01, seed=11))
    path = tmp_path / "doc.xml"
    path.write_text(text, encoding="utf-8")
    store_dir = tmp_path / "store"
    with ShardedStore.open(
        str(store_dir), scheme="interval", shards=2,
        placement="round_robin",
    ) as store:
        doc_ids = store.store_corpus(
            [text, path, parse_document(text)],
            names=["as-text", "as-path", "as-document"],
        )
        reconstructed = {
            serialize(store.reconstruct(doc_id)) for doc_id in doc_ids
        }
        assert reconstructed == {serialize(parse_document(text))}


def test_store_corpus_name_count_mismatch(tmp_path):
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
    ) as store:
        with pytest.raises(StorageError, match="name"):
            store.store_corpus(["<a/>", "<b/>"], names=["only-one"])


def test_store_corpus_atomicity_on_bad_document(tmp_path):
    """One malformed payload rolls back the whole corpus: no shard-map
    entries, no catalog rows, nothing partially registered."""
    good = serialize(generate_auction(0.01, seed=21))
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
        placement="round_robin",
    ) as store:
        with pytest.raises(XmlSyntaxError):
            store.store_corpus(
                [good, good, "<broken><nope></broken>"],
                names=["a", "b", "c"],
            )
        assert store.documents() == []
        assert sum(store.shard_counts().values()) == 0
        # The store remains fully usable afterwards.
        [doc_id] = store.store_corpus([good], names=["after"])
        assert serialize(store.reconstruct(doc_id)) == serialize(
            parse_document(good)
        )


def test_store_corpus_empty(tmp_path):
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
    ) as store:
        assert store.store_corpus([]) == []


def _tiny_corpus(count):
    texts = [f'<d n="{i}"><t>text {i}</t></d>' for i in range(count)]
    return texts, [f"tiny-{i}" for i in range(count)]


def test_store_corpus_lazy_sources_outrun_names(tmp_path):
    """More lazy payloads than names: a typed error naming the
    position, every open session rolled back, nothing registered."""
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
        placement="round_robin",
    ) as store:
        with pytest.raises(StorageError, match="position 2"):
            store.store_corpus(
                iter(["<a/>", "<b/>", "<c/>"]), names=["a", "b"]
            )
        assert store.documents() == []
        assert sum(store.shard_counts().values()) == 0
        assert not store.recover().acted  # rolled back: no orphans


def test_store_corpus_pulls_one_payload_at_a_time(tmp_path):
    """Payload n+1 is not asked for before payload n is stored."""
    texts, names = _tiny_corpus(12)
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=3,
        placement="round_robin",
    ) as store:
        stored_at_pull = []

        def recording():
            for text in texts:
                counters = store.metrics.snapshot()["counters"]
                stored_at_pull.append(counters.get("ingest.documents", 0))
                yield text

        doc_ids = store.store_corpus(recording(), names=names)
        assert stored_at_pull == list(range(len(texts)))
        assert len(doc_ids) == len(texts)


def test_store_corpus_threads(tmp_path, monkeypatch):
    """Rows are produced on the caller's thread only; the session
    closes run on named threads that are gone when the call returns."""
    texts, names = _tiny_corpus(6)
    producers, closers, loaders_during_production = set(), [], []
    real_store_stream = BulkSession.store_stream
    real_exit = BulkSession.__exit__

    def store_stream(self, events, name="document"):
        producers.add(threading.current_thread())
        return real_store_stream(self, events, name)

    def exit_(self, exc_type, exc, tb):
        closers.append(threading.current_thread().name)
        return real_exit(self, exc_type, exc, tb)

    monkeypatch.setattr(BulkSession, "store_stream", store_stream)
    monkeypatch.setattr(BulkSession, "__exit__", exit_)

    def ingest_threads():
        return [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("ingest")
        ]

    def sources():
        for text in texts:
            loaders_during_production.extend(ingest_threads())
            yield text

    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=3,
        placement="round_robin",
    ) as store:
        store.store_corpus(sources(), names=names)
        assert producers == {threading.current_thread()}
        assert loaders_during_production == []
        assert sorted(closers) == [
            "ingest-close-0", "ingest-close-1", "ingest-close-2"
        ]
        assert ingest_threads() == []


def test_store_corpus_unused_shard_is_untouched(tmp_path):
    """A shard that hash placement sends nothing to gets no bulk
    session: no statement at all, so no index drop or rebuild."""
    policy = ShardFaultPolicy()
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=3, placement="hash",
        fault_policy=policy,
    ) as store:
        watcher = LockWatcher()
        instrument_sharded_store(store, watcher)
        names = [
            name
            for name in (f"doc-{i}" for i in range(60))
            if store.place(name) != 2
        ][:6]
        assert {store.place(name) for name in names} == {0, 1}
        indexes_before = _index_names(store.writers[2].db)
        statements_before = policy.statement_count(2)
        doc_ids = store.store_corpus(
            [f"<d>{name}</d>" for name in names], names=names
        )
        assert len(doc_ids) == len(names)
        assert policy.statement_count(2) == statements_before
        assert _index_names(store.writers[2].db) == indexes_before
        assert store.shard_counts()[2] == 0
        histograms = store.metrics.snapshot()["histograms"]
        assert "ingest.shard2.load_seconds" not in histograms
        assert store.verify_ok()
        watcher.assert_clean()


def test_store_corpus_close_failure_registers_nothing(tmp_path):
    """A fault in one shard's index rebuild (the first statement of its
    session close) surfaces; the shard that did commit holds only
    orphans, which recover() sweeps; the store stays usable."""
    texts, names = _tiny_corpus(4)
    policy = ShardFaultPolicy()
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
        placement="round_robin", fault_policy=policy,
    ) as store:
        indexes_before = _index_names(store.writers[1].db)
        assert indexes_before

        def sources():
            yield from texts
            # Every payload is stored; the next statement shard 1 sees
            # is the first CREATE INDEX of its close.
            policy.fail_shard(1)

        with pytest.raises(FaultInjected):
            store.store_corpus(sources(), names=names)
        policy.heal_shard(1)
        assert store.documents() == []
        assert _index_names(store.writers[1].db) == indexes_before
        report = store.recover()
        assert sorted(shard for shard, _ in report.orphans_removed) == [0, 0]
        assert sum(
            len(writer.documents()) for writer in store.writers
        ) == 0
        doc_ids = store.store_corpus(texts, names=names)
        for doc_id, text in zip(doc_ids, texts):
            assert store.reconstruct_xml(doc_id) == serialize(
                parse_document(text)
            )
        assert store.verify_ok()


def test_store_corpus_close_spans_join_the_request_trace(tmp_path):
    """index_rebuild / analyze run on the close threads yet hang under
    the caller's open span; the load event has no queue_depth."""
    texts, names = _tiny_corpus(4)
    tracer = Tracer()
    log = RequestLog(capacity=16)
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
        placement="round_robin", tracer=tracer, request_log=log,
    ) as store:
        with tracer.span("request") as request:
            store.store_corpus(texts, names=names)
        closes = [
            span for span in request.children
            if span.name == "ingest_shard"
        ]
        assert sorted(span.attributes["shard"] for span in closes) == [0, 1]
        for span in closes:
            assert span.attributes["documents"] == 2
            assert span.thread_id != threading.get_ident()
            assert {"index_rebuild", "analyze"} <= {
                child.name for child in span.children
            }
        [event] = [e for e in log.tail() if e.get("op") == "load"]
        assert event["outcome"] == "ok"
        assert "queue_depth" not in event


# -- deferred index rebuilds --------------------------------------------------


def _index_names(db):
    return {
        row[0]
        for row in db.query(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name NOT LIKE 'sqlite_%'"
        )
    }


def test_bulk_session_defers_and_rebuilds_indexes():
    text = serialize(generate_auction(0.01, seed=5))
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        before = _index_names(store.db)
        assert before  # the interval scheme has secondary indexes
        with store.bulk_session() as session:
            session.store_stream(parse_events(text), "doc")
            # Inside the session the secondary indexes are dropped so
            # inserts pay no incremental maintenance.
            assert not _index_names(store.db) & before
        # Rebuilt (inside the commit) on the way out.
        assert _index_names(store.db) >= before
        [doc] = store.documents()
        assert store.reconstruct_xml(doc.doc_id) == serialize(
            parse_document(text)
        )


def test_bulk_session_rollback_restores_indexes():
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        before = _index_names(store.db)
        with pytest.raises(XmlSyntaxError):
            with store.bulk_session() as session:
                session.store_stream(parse_events("<a>ok</a>"), "ok")
                session.store_stream(
                    parse_events("<broken>"), "broken"
                )
        # The rolled-back transaction takes the DROP INDEX statements
        # with it: the schema is exactly as before the session.
        assert _index_names(store.db) >= before
        assert store.documents() == []
