"""Differential tests for the extended axes (ancestor, siblings,
following/preceding) — the order-encoding schemes' signature capability.

Coverage matrix (the published reality this preserves):

* interval — every axis is a region window: full support;
* dewey    — every axis is a label comparison: full support;
* edge/binary — ancestor needs an *upward* recursive closure, siblings
  an ordinal join; following/preceding are untranslatable without an
  order encoding and are rejected.
"""

import pytest

from repro.errors import UnsupportedQueryError
from repro.relational.database import Database
from repro.workloads.treegen import TreeProfile, generate_tree
from repro.xml import parse_document
from repro.xpath import evaluate_nodes

from tests.conftest import BIB_XML, make_scheme

FULL_SUPPORT = ("interval", "dewey")
ANCESTOR_SUPPORT = ("edge", "binary", "interval", "dewey")

ANCESTOR_QUERIES = [
    "/bib/book/author/ancestor::book",
    "//last/ancestor::*",
    "//last/ancestor::author",
    "//last/ancestor-or-self::last",
    "//first/ancestor::book/title",
    "//author/ancestor::book[@year = '2000']/@id",
    "//last/ancestor::journal",                       # empty
    "/bib/book/@year/ancestor::book",                 # from an attribute
]

SIBLING_QUERIES = [
    "/bib/book[1]/following-sibling::*",
    "/bib/book[1]/following-sibling::article",
    "/bib/article/preceding-sibling::book",
    "/bib/book/following-sibling::book[title]",
    "/bib/book/author[1]/following-sibling::author/last",
    "/bib/book[2]/preceding-sibling::*",
]

ORDER_QUERIES = [
    "/bib/book[1]/following::author",
    "/bib/article/preceding::title",
    "/bib/book[2]/following::*",
    "//first/following::last",
    "//article/preceding::price",
]


@pytest.fixture(scope="module")
def stores():
    doc = parse_document(BIB_XML)
    built = {}
    databases = []
    for name in ANCESTOR_SUPPORT:
        db = Database()
        databases.append(db)
        scheme = make_scheme(name, db)
        built[name] = (scheme, scheme.store(doc, "bib").doc_id)
    yield doc, built
    for db in databases:
        db.close()


def expected(doc, query):
    return sorted(
        n.order_key for n in evaluate_nodes(doc, query) if n.order_key > 0
    )


@pytest.mark.parametrize("query", ANCESTOR_QUERIES + SIBLING_QUERIES)
@pytest.mark.parametrize("scheme_name", ANCESTOR_SUPPORT)
def test_ancestor_and_sibling_axes(stores, scheme_name, query):
    doc, built = stores
    scheme, doc_id = built[scheme_name]
    assert scheme.query_pres(doc_id, query) == expected(doc, query)


@pytest.mark.parametrize("query", ORDER_QUERIES)
def test_following_preceding_axes(stores, query):
    doc, built = stores
    for scheme_name in FULL_SUPPORT:
        scheme, doc_id = built[scheme_name]
        assert scheme.query_pres(doc_id, query) == expected(doc, query), (
            scheme_name
        )
    for scheme_name in ("edge", "binary"):
        scheme, doc_id = built[scheme_name]
        with pytest.raises(UnsupportedQueryError):
            scheme.query_pres(doc_id, query)


def test_sibling_axis_from_attribute_rejected(stores):
    __, built = stores
    for scheme_name in ANCESTOR_SUPPORT:
        scheme, doc_id = built[scheme_name]
        with pytest.raises(UnsupportedQueryError, match="attribute"):
            scheme.query_pres(doc_id, "/bib/book/@year/following-sibling::*")


def test_extended_axes_rejected_by_path_schemes(stores):
    doc, __ = stores
    for scheme_name in ("xrel", "universal"):
        with Database() as db:
            scheme = make_scheme(scheme_name, db)
            doc_id = scheme.store(doc, "bib").doc_id
            with pytest.raises(UnsupportedQueryError):
                scheme.query_pres(doc_id, "//last/ancestor::book")


RANDOM_QUERIES = [
    "//c/ancestor::a",
    "//b/ancestor-or-self::b",
    "//a/following-sibling::b",
    "//b/preceding-sibling::*",
    "//c/following::a",
    "//a/preceding::c",
    "//b/ancestor::*[@k]",
    "//c/parent::b",
]

#: The axes edge and binary answer with no order encoding.
ORDER_AXES = ("following::", "preceding::")


@pytest.mark.parametrize("seed", range(4))
def test_extended_axes_on_random_trees(seed):
    profile = TreeProfile(depth=4, max_fanout=3, labels=("a", "b", "c"))
    document = generate_tree(profile, seed=seed)
    for scheme_name in ANCESTOR_SUPPORT:
        with Database() as db:
            scheme = make_scheme(scheme_name, db)
            doc_id = scheme.store(document, f"rand{seed}").doc_id
            for query in RANDOM_QUERIES:
                if scheme_name not in FULL_SUPPORT and any(
                    axis in query for axis in ORDER_AXES
                ):
                    with pytest.raises(UnsupportedQueryError):
                        scheme.query_pres(doc_id, query)
                    continue
                assert scheme.query_pres(doc_id, query) == expected(
                    document, query
                ), (scheme_name, query)
