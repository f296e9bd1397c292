"""The ingest pipeline (streaming since PR 8, the only lane since PR 14).

Three layers of differential evidence, each against an independent
algorithm as the oracle:

* the pull parser's event stream is what stdlib expat reports for the
  same text (``tests/xml_oracle.py``) — and a rejected document is
  rejected by both, with :class:`XmlSyntaxError`, on the same line —
  at several read-chunk sizes and for every kind of source
  (``tests/test_xml_differential.py`` does the same on generated and
  damaged documents);
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
import tracemalloc

import pytest

from repro.analysis.lockharness import LockWatcher, instrument_sharded_store
from repro.core.store import XmlRelStore
from repro.errors import StorageError, XmlRelError, XmlSyntaxError
from repro.obs.events import RequestLog
from repro.obs.trace import Tracer
from repro.reliability.faults import FaultInjected, ShardFaultPolicy
from repro.serve import ShardedStore
from repro.storage.base import BulkSession
from repro.storage.numbering import shred_into
from repro.workloads import (
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)
from repro.xml import parse_document, serialize
from repro.xml.dtd import parse_dtd
from repro.xml.events import Event, EventKind, parse_events, stream_events
from repro.xml.parser import ParseOptions
from repro.xpath import evaluate_nodes

from tests.conftest import shred_records
from tests.numbering_oracle import element_content, number_document
from tests.xml_oracle import (
    CHUNKS,
    OracleReject,
    assert_agree,
    chunked_reader,
    expat_events,
    expat_outcome,
    parser_outcome,
)

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
    # Line ends: \r\n and lone \r are \n, in text and (then as a space)
    # in attribute values; a character reference is not a line end.
    '<r a="x\r\ny">l1\r\nl2\rl3&#13;</r>',
    "<a\r\n  b='1'\r>x</a\r>\r\n",
    "<!DOCTYPE a [<?pi ]>?><!-- ]> -->]><a/>",
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
    # Character references outside Unicode or the Char production used
    # to escape as ValueError / OverflowError (or, cut off in hex, hang).
    "<a>&#x110000;</a>",
    '<a b="&#1114112;"/>',
    "<a>&#99999999999;</a>",
    "<a>&#x12",
    "<a>&#\u0663;</a>",
    # Literal characters outside the Char production, wherever they sit.
    "<a>\x0b</a>",
    '<a b="\x01"/>',
    "<r><i>ab\x00needle</i><i>needle</i><i>zz</i></r>",
    "<a><![CDATA[\x00]]></a>",
    "<a><!--\ufffe--></a>",
    "<a><?p \x1f?></a>",
    "<!DOCTYPE a [<!-- \x02 -->]><a/>",
    # Comment data may not end in '-'.
    "<a><!-- x ---></a>",
    "<?xml version='1.0' standalone='maybe'?><a/>",
    # Error positions on lines other than the first.
    "<a>\n<b x='1'\n   x='2'/></a>",
    "<a>\n\n<!--\n\n",
    "<a>\n  <b>\n  </c>\n</a>",
    # Shrunk from the mutation run (tests/test_xml_differential.py):
    # each once put our error on another line than expat's.
    "<?pi?><a></a\r",
    "<?pi?><名前></名\n前>",
    "<a><!-- x\n -- y\n --></a>",
    "<a>\n<?é\nÄ--- H]  <\t? </a>\n  ",
    "<a>x\ny]]>z\n\nw</a>",
    "<a>\n<![CDATA[x\ny",
    "<a k='1'\nm='<'\n/>",
    "<a>\n<b k='v\n\n",
]

SCHEMES = ("interval", "dewey", "edge", "binary", "universal", "xrel",
           "inlining")


# -- event-stream parity -----------------------------------------------------


def _sources(text, tmp_path):
    """*text* through every kind of source ``iter_events`` accepts."""
    yield "str", text
    for chunk in CHUNKS:
        yield f"reader/{chunk}", chunked_reader(text, chunk)
    path = tmp_path / "doc.xml"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    yield "path", path


@pytest.mark.parametrize("keep_ws", [False, True])
def test_events_match_expat(keep_ws, tmp_path):
    options = ParseOptions(keep_whitespace=keep_ws)
    for text in WELL_FORMED:
        expected = expat_events(text, keep_whitespace=keep_ws)
        for label, source in _sources(text, tmp_path):
            assert parser_outcome(source, options) == expected, (text, label)


def test_syntax_errors_match_expat(tmp_path):
    """Rejected by expat, rejected by us: with XmlSyntaxError, on the
    same line — and with the same message and column from every source
    at every chunk size."""
    for text in MALFORMED:
        oracle = expat_outcome(text)
        assert isinstance(oracle, OracleReject), text
        reference = parser_outcome(text)
        assert_agree(reference, oracle, text)
        for label, source in _sources(text, tmp_path):
            assert str(parser_outcome(source)) == str(reference), (
                text, label
            )


def test_text_source_and_path_source(tmp_path):
    text = WELL_FORMED[2]
    expected = expat_events(text)
    assert list(parse_events(text)) == expected
    path = tmp_path / "doc.xml"
    path.write_text(text, encoding="utf-8")
    assert list(parse_events(path)) == expected


def test_parse_document_is_the_tree_of_the_events():
    for text in WELL_FORMED:
        assert list(stream_events(parse_document(text))) == list(
            parse_events(text)
        ), text


def test_line_end_split_across_reads():
    """\\r|\\n straddling a read boundary is one line end, at any
    chunk size down to a single character."""
    text = "<a>1\r\n2\r3\n\r\n4\r</a>\r"
    expected = expat_events(text)
    assert [e.value for e in expected if e.kind is EventKind.TEXT] == [
        "1\n2\n3\n\n4\n"
    ]
    for chunk in (1, 2, 3, 5):
        assert parser_outcome(chunked_reader(text, chunk)) == expected, chunk
    error = parser_outcome(chunked_reader("<a>\r\n\r\n\r</b>", 1))
    assert (error.line, error.column) == (4, 1)


def test_error_positions_survive_window_compaction():
    """Far past the 64 KiB window: the line of a late error, and of an
    unclosed token that began several refills before the input ended,
    are still expat's (the window keeps an open token's start)."""
    rows = "".join(f"<i n='{n}'>row {n}</i>\n" for n in range(12000))
    late = "<r>\n" + rows + "<i>\n</j></r>"
    unclosed = "<r>\n" + rows + "<!-- never closed\n" + rows
    for text in (late, unclosed):
        assert len(text) > 3 * 64 * 1024
        oracle = expat_outcome(text)
        ours = parser_outcome(text)
        assert_agree(ours, oracle, text[:40])
        assert ours.line > 12000
        for chunk in (4096, 100_000):
            small = parser_outcome(chunked_reader(text, chunk))
            assert str(small) == str(ours)


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


# -- hostile and line-end input at the store doors ----------------------------

NUL_XML = "<r><i>ab\x00needle</i><i>needle</i><i>zz</i></r>"
NUL_DTD = "<!ELEMENT r (i*)><!ELEMENT i (#PCDATA)>"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_illegal_character_is_rejected_not_stored(scheme):
    """A literal NUL used to be stored, after which sqlite's string
    functions (they stop at NUL) and the evaluator disagreed on
    ``contains()``.  It is now a syntax error at every door; with a
    legal control character in its place the scheme and the evaluator
    agree."""
    query = '//i[contains(., "needle")]'
    kwargs = {"dtd": parse_dtd(NUL_DTD)} if scheme == "inlining" else {}
    with XmlRelStore.open(scheme=scheme, **kwargs) as store:
        with pytest.raises(XmlSyntaxError, match="illegal character U\\+0000"):
            store.store_text(NUL_XML, "nul")
        with pytest.raises(XmlSyntaxError):
            parse_document(NUL_XML)
        assert store.documents() == []
        legal = NUL_XML.replace("\x00", "\x7f")
        doc_id = store.store_text(legal, "del")
        expected = [
            node.order_key
            for node in evaluate_nodes(parse_document(legal), query)
        ]
        assert len(expected) == 2
        assert store.query_pres(doc_id, query) == expected


@pytest.mark.parametrize(
    "text", ["<a>&#x110000;</a>", '<a b="&#1114112;"/>',
             "<a>&#99999999999;</a>"],
)
def test_illegal_character_reference_is_a_syntax_error(text):
    with XmlRelStore.open(scheme="interval") as store:
        store.store_text("<ok/>", "ok")
        before = store.documents()
        with pytest.raises(XmlSyntaxError) as error:
            store.store_text(text, "hostile")
        assert "character reference to illegal character" in str(error.value)
        assert (error.value.line, error.value.column) != (0, 0)
        assert store.documents() == before


def test_line_ends_do_not_depend_on_the_door(tmp_path):
    """The same bytes through ``store_text``, ``store_file`` and
    ``store_corpus`` (text and path payloads) leave the same rows."""
    text = '<r a="x\r\ny">l1\r\nl2\rl3</r>'
    path = tmp_path / "crlf.xml"
    path.write_bytes(text.encode("utf-8"))
    dumps = {}
    with XmlRelStore.open(scheme="interval") as store:
        store.store_text(text, "doc")
        dumps["store_text"] = _dump_tables(store)
    with XmlRelStore.open(scheme="interval") as store:
        store.store_file(str(path), "doc")
        dumps["store_file"] = _dump_tables(store)
    for label, payload in (("corpus/text", text), ("corpus/path", path)):
        with ShardedStore.open(
            str(tmp_path / label.replace("/", "-")), scheme="interval",
            shards=1,
        ) as store:
            store.store_corpus([payload], names=["doc"])
            dumps[label] = _dump_tables(store.writers[0])
    reference = dumps.pop("store_text")
    rows = [row for table in reference.values() for row in table]
    assert any("x y" in row for row in rows)
    assert any("l1\nl2\nl3" in row for row in rows)
    for label, dump in dumps.items():
        assert dump == reference, label


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


def _traced_peak(call):
    """Peak bytes of Python allocations made while *call* runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_store_corpus_peak_memory_is_not_a_tree(tmp_path):
    """The ingest lane holds a scanner window, one ``STREAM_BATCH`` of
    rows and O(depth) frames — a constant (0.95 MB here, and the same
    for a file twice the size) — where a tree costs ~13x the file.  One
    generated auction body is tiled into a single 0.4 MB document; the
    load must fit in 3x the file's size and ``parse_document`` of the
    same file must not fit in 10x.  tracemalloc sees Python objects
    only — what a tree would be made of — and slows the lane ~10x,
    hence the small file; perfbench ``bulk_ingest`` ``peak_rss_mb``
    gates the process's real footprint at real sizes."""
    tile = serialize(generate_auction(0.1, seed=3))
    body_start = tile.index(">", tile.index("<site")) + 1
    body_end = tile.rindex("</site>")
    path = tmp_path / "tiled.xml"
    path.write_text(
        tile[:body_start] + tile[body_start:body_end] * 9 + tile[body_end:],
        encoding="utf-8",
    )
    warm = tmp_path / "warm.xml"
    warm.write_text(tile, encoding="utf-8")
    size = path.stat().st_size
    with ShardedStore.open(
        str(tmp_path / "store"), scheme="interval", shards=2,
        placement="round_robin",
    ) as store:
        # First use compiles regexes, imports lazily and creates the
        # schema; none of that is the lane's working set.
        store.store_corpus([warm], names=["warm"])
        streamed = _traced_peak(
            lambda: store.store_corpus([path], names=["tiled"])
        )
        assert sum(store.shard_counts().values()) == 2
    tree = _traced_peak(
        lambda: parse_document(path.read_text(encoding="utf-8"))
    )
    assert streamed < 3 * size and tree > 10 * size, (streamed, size, tree)


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


def test_store_corpus_surplus_names_from_generator(tmp_path):
    """A generator cannot be counted up front: a spare name still
    raises, before any session commits, and nothing is registered."""
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
    ) as store:
        with pytest.raises(StorageError, match="2 document.s. but 3 name"):
            store.store_corpus(
                (text for text in ["<a/>", "<b/>"]), names=["x", "y", "z"]
            )
        assert store.documents() == []
        assert sum(store.shard_counts().values()) == 0


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
