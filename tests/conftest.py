"""Shared fixtures and helpers for the test suite.

With ``XMLREL_LOCK_HARNESS=1`` in the environment (the CI
``concurrency-analysis`` job), every :class:`repro.serve.ShardedStore`
the suite opens is instrumented with the runtime lock-order harness
(:mod:`repro.analysis.lockharness`); any recorded lock-order violation
fails the session at teardown, and the acquisition graph is written to
``$XMLREL_LOCK_HARNESS_REPORT`` (default ``lock-harness-report.json``).
"""

import os

import pytest

from repro.relational.database import Database
from repro.core.registry import available_schemes, create_scheme
from repro.storage.numbering import shred_into
from repro.xml import parse_document

# Schemes whose translators support the full core query set on
# schema-less documents (inlining requires a DTD; handled separately).
SCHEMALESS_SCHEMES = [
    name for name in available_schemes() if name != "inlining"
]

BIB_XML = """\
<bib>
  <book year="1994" id="b1">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000" id="b2">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann</publisher>
    <price>39.95</price>
  </book>
  <article year="2001" id="a1">
    <title>Storage of XML</title>
    <author><last>Florescu</last></author>
  </article>
</bib>
"""

@pytest.fixture()
def tokenized(monkeypatch):
    """Every string the XPath parser tokenizes during the test, with the
    process's parse memo emptied first."""
    from repro.xpath import lexer, parser

    calls: list[str] = []

    def counting(text):
        calls.append(text)
        return lexer.tokenize(text)

    parser.parse_xpath.cache_clear()
    monkeypatch.setattr(parser, "tokenize", counting)
    return calls


def free_slots(executor):
    """How many admission slots a ``QueryExecutor``'s gate hands out
    right now."""
    taken = 0
    while executor._gate.acquire(blocking=False):
        taken += 1
    for _ in range(taken):
        executor._gate.release()
    return taken


BIB_DTD_XML = """\
<!DOCTYPE bib [
<!ELEMENT bib (book*, article*)>
<!ELEMENT book (title, author+, publisher?, price?)>
<!ATTLIST book year CDATA #REQUIRED id ID #IMPLIED>
<!ELEMENT article (title, author+)>
<!ATTLIST article year CDATA #REQUIRED id ID #IMPLIED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (last, first?)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT last (#PCDATA)>
<!ELEMENT first (#PCDATA)>
]>
""" + BIB_XML


@pytest.fixture()
def db():
    with Database() as database:
        yield database


@pytest.fixture()
def bib_doc():
    return parse_document(BIB_XML)


def shred_records(events, enter=None):
    """Drive the store path's shredder over *events*; returns
    ``(records in pre order, content cache by pre, node_count,
    root_tag)`` — the shape ``number_document`` + ``element_content``
    produce from a DOM, so the two can be compared."""
    records, contents = [], {}

    def add(record, content):
        records.append(record)
        if content is not None:
            contents[record.pre] = content

    count, root = shred_into(events, add, enter)
    records.sort(key=lambda record: record.pre)
    return records, contents, count, root


def make_scheme(name, db, dtd=None, **kwargs):
    """Instantiate a scheme, supplying the DTD where required."""
    if name == "inlining":
        kwargs.setdefault("dtd", dtd)
    return create_scheme(name, db, **kwargs)


# -- opt-in runtime lock-order harness ----------------------------------------

_LOCK_WATCHER = None
_ORIGINAL_OPEN = None


def pytest_configure(config):
    if not os.environ.get("XMLREL_LOCK_HARNESS"):
        return
    global _LOCK_WATCHER, _ORIGINAL_OPEN
    from repro.analysis.lockharness import (
        LockWatcher,
        instrument_sharded_store,
    )
    from repro.serve.sharded import ShardedStore

    _LOCK_WATCHER = LockWatcher()
    _ORIGINAL_OPEN = ShardedStore.open.__func__

    def opened_instrumented(cls, *args, **kwargs):
        store = _ORIGINAL_OPEN(cls, *args, **kwargs)
        instrument_sharded_store(store, _LOCK_WATCHER)
        return store

    ShardedStore.open = classmethod(opened_instrumented)


def pytest_unconfigure(config):
    global _LOCK_WATCHER, _ORIGINAL_OPEN
    if _LOCK_WATCHER is None:
        return
    from repro.serve.sharded import ShardedStore

    ShardedStore.open = classmethod(_ORIGINAL_OPEN)
    _LOCK_WATCHER = None
    _ORIGINAL_OPEN = None


@pytest.fixture(autouse=True, scope="session")
def lock_harness_gate():
    """Fails the session at teardown on any recorded violation."""
    yield
    if _LOCK_WATCHER is None:
        return
    report_path = os.environ.get(
        "XMLREL_LOCK_HARNESS_REPORT", "lock-harness-report.json"
    )
    _LOCK_WATCHER.write_report(report_path)
    report = _LOCK_WATCHER.report()
    print(
        f"\nlock harness: {report['acquires']} acquire(s), "
        f"{report['count']} violation(s), report at {report_path}"
    )
    _LOCK_WATCHER.assert_clean()
